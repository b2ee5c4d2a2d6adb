"""Full model assembly: configuration, parameter container, forward pass.

``Model.forward`` scores a padded ``data.Batch`` of premise/hypothesis
pairs; it is the one forward path behind training, evaluation, prediction
and ensembles. The model allows no cross-sentence attention, so the
batch's 2B sentences are embedded, encoded by the shared stacked BiLSTM and
pooled together, as one ragged block of their valid tokens, with one call
each. The encoder returns the top layer's states and the configured gate's
activations; the pools turn them into one (2B, sentence_dim) tensor, whose
rows are split into premises and hypotheses, expanded into matching
features and classified. The configuration captures every architectural
knob, including the ablation switches, so a checkpoint can rebuild the
exact network.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import classify as CL
from . import compose as CP
from . import embed as EM
from . import encoder as EN
from . import tensor as T
from .data import Batch
from .tensor import Tensor

GATE_KINDS = tuple(k.value for k in EN.GateKind)


@dataclass
class ModelConfig:
    """Architecture and ablation switches; seed covers init and data order."""

    word_dim: int = 300
    char_dim: int = 15
    filter_widths: tuple[int, ...] = (1, 3, 5)
    filter_channels: int = 100
    hidden_dim: int = 600
    n_layers: int = 3
    mlp_hidden: int = 600
    gate_kind: str = field(default="input", metadata={"choices": GATE_KINDS})
    use_char: bool = True
    use_word: bool = True
    use_gated_att: bool = True
    use_absdiff_product: bool = True
    mlp_shortcut: bool = True
    seed: int = 0

    def __post_init__(self):
        self.filter_widths = tuple(int(w) for w in self.filter_widths)
        dims = {
            "word_dim": self.word_dim,
            "char_dim": self.char_dim,
            "filter_channels": self.filter_channels,
            "hidden_dim": self.hidden_dim,
            "n_layers": self.n_layers,
            "mlp_hidden": self.mlp_hidden,
        }
        for name, value in dims.items():
            if value < 1:
                raise ValueError(f"{name} must be positive, got {value}")
        if not self.filter_widths or any(w < 1 for w in self.filter_widths):
            raise ValueError(f"bad filter widths {self.filter_widths}")
        if len(set(self.filter_widths)) != len(self.filter_widths):
            raise ValueError(f"duplicate filter widths {self.filter_widths}")
        if self.gate_kind not in GATE_KINDS:
            raise ValueError(
                f"gate_kind must be one of {GATE_KINDS}, got {self.gate_kind!r}"
            )
        if not self.use_char and not self.use_word:
            raise ValueError("use_char and use_word cannot both be off")

    @property
    def gate(self) -> EN.GateKind:
        return EN.GateKind(self.gate_kind)

    @property
    def char_out_dim(self) -> int:
        return len(self.filter_widths) * self.filter_channels

    @property
    def embed_dim(self) -> int:
        out = 0
        if self.use_char:
            out += self.char_out_dim
        if self.use_word:
            out += self.word_dim
        return out

    @property
    def sentence_dim(self) -> int:
        pools = 3 if self.use_gated_att else 2
        return pools * 2 * self.hidden_dim

    @property
    def match_dim(self) -> int:
        blocks = 4 if self.use_absdiff_product else 2
        return blocks * self.sentence_dim

    def signature(self) -> dict:
        """Architecture identity; seed excluded so ensemble members match."""
        d = asdict(self)
        d.pop("seed")
        d["filter_widths"] = list(self.filter_widths)
        return d

    def to_dict(self) -> dict:
        d = asdict(self)
        d["filter_widths"] = list(self.filter_widths)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


@dataclass
class ModelParams:
    embed: EM.EmbedParams
    encoder: EN.EncoderParams
    classifier: CL.ClassifierParams

    def named_tensors(self) -> dict[str, Tensor]:
        out = {}
        out.update(self.embed.named_tensors())
        out.update(self.encoder.named_tensors())
        out.update(self.classifier.named_tensors())
        return out

    def trainable(self) -> dict[str, Tensor]:
        return {
            name: t
            for name, t in self.named_tensors().items()
            if t.requires_grad
        }


@dataclass
class Model:
    config: ModelConfig
    params: ModelParams

    @classmethod
    def initialize(
        cls, config: ModelConfig, n_chars: int, word_table: np.ndarray, rng
    ) -> "Model":
        """Fresh parameters; word_table is copied in and stays frozen."""
        if word_table.shape[1] != config.word_dim:
            raise ValueError(
                f"word table dim {word_table.shape[1]} != "
                f"configured {config.word_dim}"
            )
        embed = EM.init_embed_params(
            n_chars,
            config.char_dim,
            config.filter_widths,
            config.filter_channels,
            word_table,
            rng,
        )
        encoder = EN.init_encoder_params(
            config.embed_dim, config.hidden_dim, config.n_layers, rng
        )
        classifier = CL.init_classifier_params(
            config.match_dim, config.mlp_hidden, rng, config.mlp_shortcut
        )
        return cls(
            config=config,
            params=ModelParams(embed=embed, encoder=encoder, classifier=classifier),
        )

    def forward(self, batch: Batch) -> tuple[Tensor, Tensor]:
        """(probs, logits), each (B, 3), for a padded batch of pairs.

        The batch's 2B sentences go through the embedding, the encoder and
        the pools as one ragged block, made of the valid cells alone, so
        padded cells are never read. The classifier scores the B pairs.
        """
        sentences = batch.sentences
        valid = sentences.mask.astype(bool)
        e = EM.embed_sentence(
            sentences.word_ids[valid],
            sentences.char_ids[valid],
            self.params.embed,
            use_char=self.config.use_char,
            use_word=self.config.use_word,
        )
        gate = self.config.gate
        enc = EN.stacked_encode(e, sentences.mask, self.params.encoder, gate)
        v = CP.compose(enc, gate, self.config.use_gated_att)
        b = batch.size
        v_inp = CL.matching_features(
            T.slice_axis(v, 0, 0, b),
            T.slice_axis(v, 0, b, 2 * b),
            self.config.use_absdiff_product,
        )
        return CL.mlp_forward(v_inp, self.params.classifier)

"""Full model assembly: configuration, parameter container, forward pass.

``Model.forward`` scores a ``data.Batch`` of premise/hypothesis pairs; it
is the one forward path behind training, evaluation, prediction and
ensembles. The model allows no cross-sentence attention, so the batch's 2B
sentences are embedded, encoded by the shared stacked BiLSTM and pooled
together, as the batch's one ragged block of tokens, with one call each.
The encoder returns the top layer's states and, when the attention pool
reads them, the configured gate's activations; the pools turn them into
one (2B, sentence_dim) tensor, whose rows are split into premises and
hypotheses, expanded into matching features and classified. The
configuration captures every architectural knob, including the ablation
switches, so a checkpoint can rebuild the exact network.
"""

from __future__ import annotations

import numbers
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import classify as CL
from . import compose as CP
from . import embed as EM
from . import encoder as EN
from .data import Batch
from .tensor import Tensor, drawing

GATE_KINDS = tuple(k.value for k in EN.GateKind)
INT64_MAX = np.iinfo(np.int64).max


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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
        # A checkpoint's header is JSON, so its values may be of any type.
        # Each field takes its default's type; any integer but a bool (numpy's
        # too) is kept as an int.
        for f in fields(self):
            value, want = getattr(self, f.name), type(f.default)
            if want is int and _is_int(value):
                setattr(self, f.name, int(value))
            elif want is not tuple and type(value) is not want:
                raise ValueError(f"{f.name} must be {want.__name__}, got {value!r}")
        widths = self.filter_widths
        if not isinstance(widths, (list, tuple)) or not all(map(_is_int, widths)):
            raise ValueError(f"filter_widths must be integers, got {widths!r}")
        self.filter_widths = tuple(int(w) for w in widths)
        dims = "word_dim char_dim filter_channels hidden_dim n_layers mlp_hidden"
        sizes = [(name, getattr(self, name)) for name in dims.split()]
        sizes += [("filter_widths", w) for w in self.filter_widths]
        for name, value in sizes:
            if not 1 <= value <= INT64_MAX:  # numpy sizes are int64
                raise ValueError(
                    f"{name} must be positive and at most {INT64_MAX}, got {value}"
                )
        if not self.filter_widths:
            raise ValueError("filter_widths must not be empty")
        for width in self.filter_widths:
            if width * self.char_dim > INT64_MAX:  # a filter's fan-in
                raise ValueError(
                    f"filter_widths: width {width} times char_dim {self.char_dim} "
                    f"must be at most {INT64_MAX}"
                )
        if len(set(self.filter_widths)) != len(self.filter_widths):
            raise ValueError(f"duplicate filter widths {self.filter_widths}")
        if self.gate_kind not in GATE_KINDS:
            raise ValueError(
                f"gate_kind must be one of {GATE_KINDS}, got {self.gate_kind!r}"
            )
        if not self.use_char and not self.use_word:
            raise ValueError("use_char and use_word cannot both be off")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

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
        d = self.to_dict()
        del d["seed"]
        return d

    def to_dict(self) -> dict:
        d = asdict(self)
        d["filter_widths"] = list(self.filter_widths)
        return d


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
        """Fresh parameters in word_table's dtype (float32 or float64; any
        other becomes float64). word_table is wrapped, not copied, and stays
        frozen; each trainable weight is its own array, until ``Adam`` lays
        them out in its flat buffer.

        Each drawn weight comes from its own child of rng, spawned in this
        order: the char table, the filter weights in ``filter_widths``'
        order, each encoder layer's forward then backward ``w`` and ``u``,
        and the MLP's ``w1``, ``w2`` and ``w_out`` (see ``T.normal_param``).
        The weights are drawn in float64 and rounded, so both dtypes start
        from the same weights, and filled on a pool of threads that is
        joined before this returns. With rng None every drawn weight is a
        read-only zero view: a skeleton of shapes that costs no draws and
        no memory, for stored values to replace."""
        if word_table.shape[1] != config.word_dim:
            raise ValueError(
                f"word table dim {word_table.shape[1]} != "
                f"configured {config.word_dim}"
            )
        with drawing():
            embed = EM.init_embed_params(
                n_chars,
                config.char_dim,
                config.filter_widths,
                config.filter_channels,
                word_table,
                rng,
            )
            dtype = embed.word_table.data.dtype
            encoder = EN.init_encoder_params(
                config.embed_dim, config.hidden_dim, config.n_layers, rng, dtype
            )
            classifier = CL.init_classifier_params(
                config.match_dim, config.mlp_hidden, rng, config.mlp_shortcut, dtype
            )
        params = ModelParams(embed=embed, encoder=encoder, classifier=classifier)
        return cls(config=config, params=params)

    def forward(self, batch: Batch) -> Tensor:
        """The (B, 3) class logits of a batch of pairs.

        The batch's 2B sentences go through the embedding, the encoder and
        the pools as the one ragged block of tokens the batch holds. The
        classifier scores the B pairs.
        """
        e = EM.embed_sentence(
            batch.word_ids,
            batch.words,
            batch.inverse,
            self.params.embed,
            use_char=self.config.use_char,
            use_word=self.config.use_word,
        )
        gate = self.config.gate if self.config.use_gated_att else None
        enc = EN.stacked_encode(e, batch.lengths, self.params.encoder, gate)
        v = CP.compose(enc, gate)
        v_inp = CL.matching_features(v, self.config.use_absdiff_product)
        return CL.mlp_forward(v_inp, self.params.classifier)

"""Reference forward pass in plain numpy, written from the model's equations.

It shares no code with the program: it reads a checkpoint's tensors by
name and computes, for one premise/hypothesis pair,

- per word, a char-CNN: character rows (ids clipped to 20 characters),
  zero rows appended when the word is shorter than a filter, every window
  through the filter, ReLU, max over windows; widths in ascending order;
- per token, [char-CNN vector; frozen word row];
- a stacked BiLSTM whose layer k > 1 reads [embeddings; layer k-1 states],
  with gate blocks in the order [input; forget; update; output];
- over the top layer, the gate-norm attention pool (weights proportional to
  the l2 norm of each position's input-gate vector, both directions), the
  average and the max pool;
- features [p; h; |p - h|; p * h], a two-layer ReLU MLP whose second layer
  also reads the features, and a softmax.
"""

from __future__ import annotations

import numpy as np

MAX_WORD_CHARS = 20
PAD, UNK = 0, 1


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class Reference:
    def __init__(self, tensors: dict[str, np.ndarray], words: dict[str, int],
                 chars: dict[str, int]):
        self.t = tensors
        self.words = words
        self.chars = chars
        self.widths = sorted(
            int(name[len("embed.cnn.w"):-len(".weight")])
            for name in tensors
            if name.startswith("embed.cnn.w") and name.endswith(".weight")
        )
        self.n_layers = sum(1 for name in tensors if name.endswith(".fwd.w"))

    def _word_chars(self, token: str) -> np.ndarray:
        cd = self.t["embed.char_table"].shape[1]
        ids = [self.chars.get(ch, UNK) for ch in token[:MAX_WORD_CHARS]]
        x = self.t["embed.char_table"][ids]
        out = []
        for w in self.widths:
            if len(ids) < w:
                x_w = np.vstack([x, np.zeros((w - len(ids), cd))])
            else:
                x_w = x
            n_win = x_w.shape[0] - w + 1
            windows = np.stack([x_w[o : o + w].reshape(-1) for o in range(n_win)])
            conv = windows @ self.t[f"embed.cnn.w{w}.weight"] + self.t[f"embed.cnn.w{w}.bias"]
            out.append(np.maximum(conv, 0.0).max(axis=0))
        return np.concatenate(out)

    def embed(self, tokens: list[str]) -> np.ndarray:
        char_part = np.stack([self._word_chars(tok) for tok in tokens])
        word_part = self.t["embed.word_table"][[self.words.get(tok, UNK) for tok in tokens]]
        return np.hstack([char_part, word_part])

    def _direction(self, x: np.ndarray, prefix: str, reverse: bool):
        w, u, b = (self.t[f"{prefix}.{k}"] for k in ("w", "u", "b"))
        d = u.shape[0]
        n = x.shape[0]
        h, c = np.zeros(d), np.zeros(d)
        hs, input_gates = np.zeros((n, d)), np.zeros((n, d))
        for t in (range(n - 1, -1, -1) if reverse else range(n)):
            z = x[t] @ w + h @ u + b
            i, f, g, o = _sigmoid(z[:d]), _sigmoid(z[d : 2 * d]), np.tanh(z[2 * d : 3 * d]), _sigmoid(z[3 * d :])
            c = f * c + i * g
            h = o * np.tanh(c)
            hs[t] = h
            input_gates[t] = i
        return hs, input_gates

    def sentence(self, tokens: list[str]) -> np.ndarray:
        e = self.embed(tokens)
        h = None
        for k in range(1, self.n_layers + 1):
            x = e if h is None else np.hstack([e, h])
            hf, gf = self._direction(x, f"encoder.l{k}.fwd", reverse=False)
            hb, gb = self._direction(x, f"encoder.l{k}.bwd", reverse=True)
            h = np.hstack([hf, hb])
        scores = np.hstack([gf, gb])
        norms = np.sqrt((scores * scores).sum(axis=1))
        att = norms / norms.sum()
        return np.concatenate([att @ h, h.mean(axis=0), h.max(axis=0)])

    def probs(self, premise: list[str], hypothesis: list[str]) -> np.ndarray:
        p, q = self.sentence(premise), self.sentence(hypothesis)
        x = np.concatenate([p, q, np.abs(p - q), p * q])
        h1 = np.maximum(x @ self.t["classify.w1"] + self.t["classify.b1"], 0.0)
        h2 = np.maximum(np.concatenate([x, h1]) @ self.t["classify.w2"] + self.t["classify.b2"], 0.0)
        logits = h2 @ self.t["classify.w_out"] + self.t["classify.b_out"]
        e = np.exp(logits - logits.max())
        return e / e.sum()


def cross_entropy(probs: np.ndarray, label: int) -> float:
    return float(-np.log(max(probs[label], 1e-12)))

"""Learned-model slots for the two pipeline stages (A1-A7 of SURVEY.md §2.3).

Four EXECUTABLE numpy implementations carry the real forward paths
without torch:

* ``NumpyCnnScorer``       — stage-1 conv/pool/fc/sigmoid forward; its
  cue-distilled default weights reproduce CueClassifier exactly
  (test-proven), and ``.npz`` checkpoints round-trip;
* ``NumpyBertScorer``      — stage-1 BERT-shape forward: WordPiece ids ->
  embeddings+LayerNorm -> masked-MHA/gelu-FFN encoder -> pooler ->
  sigmoid(50) (classification/model_bert.py:14-118);
* ``NumpyBiLstmCrfLabeler`` — stage-2 BiLSTM scan + FC + constrained
  Viterbi + shared codec; seeded init or ``.npz`` checkpoint;
* ``NumpyTransformerCrfLabeler`` — stage-2 transformer-encoder (4 layers
  / 4 heads / inner 256, labeling/model.py:165-299) + the same CRF path.

Every class documents its flat ``.npz`` checkpoint spec in
``save()``/the class docstring — the landing pad a trained reference
checkpoint converts into (the convert_tf_checkpoint_to_pytorch.py:30-41
kind of artifact prep), round-trip-tested in tests/test_models.py.
"""

from __future__ import annotations

import pyarrow as pa

from kgray.ops.classify import with_scores
from kgray.ops.crf import BIESO_TAGS, ViterbiLabeler


class NumpyCnnScorer:
    """A1 made real without torch: a numpy forward pass with the
    reference CNN's architecture shape (char embedding -> parallel
    1-D convs -> relu -> max-over-time pool -> fully-connected ->
    sigmoid; /root/reference/classification/model.py:7-31).

    Weights come from an ``.npz`` checkpoint when given, else from
    ``cue_distilled_weights()`` — hand-constructed tensors that make the
    SAME forward computation reproduce CueClassifier's cue detection
    exactly (one-hot char embedding; one filter per schema whose kernel
    equals its cue length with bias -(len-1), so relu(conv) max-pools to
    1 iff the cue n-gram occurs; the fc layer is a scaled identity and
    sigmoid saturates to {~0,~1}).  Dims differ from the trained
    reference (embed 124 one-hot vs 128 learned; kernel sizes 2-7, one
    filter each vs (3,4,5)x128) — the EXECUTION path (conv-as-matmul over
    strided windows, pooling, fc, sigmoid) is the real one a trained
    checkpoint would use.

    Stateful-stage contract: tensors built once per actor in __init__;
    __call__ appends the same ``scores`` column CueClassifier does, so
    threshold_and_fallback/fanout compose unchanged.
    """

    def __init__(self, checkpoint_path: str | None = None,
                 text_col: str = "text"):
        import numpy as np

        self.text_col = text_col
        if checkpoint_path is not None:
            ckpt = np.load(checkpoint_path, allow_pickle=True)
            # chars[i] has char id i+1 (0 is the pad/unk slot)
            self.char2id = {c: i + 1 for i, c in enumerate(ckpt["chars"].tolist())}
            self.embed = ckpt["embed"]
            self.kernels = {}
            for key in ckpt.files:
                if key.startswith("conv_w_"):
                    k = int(key.split("_")[-1])
                    self.kernels[k] = (ckpt[f"conv_w_{k}"], ckpt[f"conv_b_{k}"],
                                      ckpt[f"conv_map_{k}"])
            self.fc_w = ckpt["fc_w"]
            self.fc_b = ckpt["fc_b"]
        else:
            (self.char2id, self.embed, self.kernels, self.fc_w,
             self.fc_b) = cue_distilled_weights()

    def save(self, path: str) -> None:
        import numpy as np

        arrays = {
            # index i holds the char with id i+1 (0 is pad/unk)
            "chars": np.asarray(
                [c for c, _ in sorted(self.char2id.items(), key=lambda x: x[1])],
                object,
            ),
            "embed": self.embed, "fc_w": self.fc_w, "fc_b": self.fc_b,
        }
        for k, (w, b, m) in self.kernels.items():
            arrays[f"conv_w_{k}"] = w
            arrays[f"conv_b_{k}"] = b
            arrays[f"conv_map_{k}"] = m
        np.savez(path, **arrays)

    def forward(self, texts: list[str]):
        """embed -> convs (matmul over strided windows) -> relu ->
        max-over-time pool -> fc -> sigmoid.  Returns (n, 50) float32."""
        import numpy as np

        n = len(texts)
        L = max(max((len(t) for t in texts), default=1), max(self.kernels))
        ids = np.zeros((n, L), np.int64)  # 0 = pad/unk
        for i, t in enumerate(texts):
            ids[i, : len(t)] = [self.char2id.get(c, 0) for c in t]
        X = self.embed[ids]  # (n, L, D) embedding lookup
        D = X.shape[2]
        n_filters = self.fc_w.shape[1]
        feats = np.zeros((n, n_filters), np.float64)
        for k in sorted(self.kernels):
            w, b, fmap = self.kernels[k]  # w: (F, k*D), b: (F,), fmap: (F,)
            win = np.lib.stride_tricks.sliding_window_view(X, (k, D), axis=(1, 2))
            win = win.reshape(n, L - k + 1, k * D)
            conv = win @ w.T + b[None, None, :]  # (n, L-k+1, F)
            act = np.maximum(conv, 0.0)  # relu
            feats[:, fmap] = act.max(axis=1)  # max-over-time pool
        logits = feats @ self.fc_w.T + self.fc_b
        return (1.0 / (1.0 + np.exp(-logits))).astype(np.float32)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return with_scores(batch, self.forward(batch[self.text_col].to_pylist()))


def cue_distilled_weights():
    """Hand-constructed CNN tensors reproducing cue detection: one-hot
    char embedding; per schema one conv filter of kernel = len(cue) whose
    weights are the cue chars' one-hot rows and bias -(len-1) (window
    response = #matching chars - (len-1): exactly 1 on a full match, <= 0
    otherwise, so relu+maxpool yields the cue indicator); fc = 100*I - 50
    saturates the sigmoid to ~{0, 1}."""
    import numpy as np

    from kgray.schema import NUM_SCHEMAS
    from kgray.templates import CUES

    chars = sorted({c for i in range(NUM_SCHEMAS) for c in CUES[i]})
    char2id = {c: i + 1 for i, c in enumerate(chars)}  # 0 = pad/unk
    D = len(chars) + 1
    embed = np.zeros((D, D), np.float64)
    embed[1:, 1:] = np.eye(D - 1)  # pad/unk embeds to the zero vector

    by_len: dict[int, list[int]] = {}
    for sid in range(NUM_SCHEMAS):
        by_len.setdefault(len(CUES[sid]), []).append(sid)
    kernels = {}
    for k, sids in by_len.items():
        w = np.zeros((len(sids), k * D), np.float64)
        for f, sid in enumerate(sids):
            for j, c in enumerate(CUES[sid]):
                w[f, j * D + char2id[c]] = 1.0
        b = np.full(len(sids), -(k - 1), np.float64)
        kernels[k] = (w, b, np.asarray(sids, np.int64))
    fc_w = 100.0 * np.eye(NUM_SCHEMAS)
    fc_b = np.full(NUM_SCHEMAS, -50.0)
    return char2id, embed, kernels, fc_w, fc_b


class NumpyBiLstmCrfLabeler(ViterbiLabeler):
    """A4-A6 executable without torch: a numpy BiLSTM forward with the
    reference labeler's architecture shape (char embedding + schema
    one-hot -> 1-layer bidirectional LSTM -> FC over 9 BIESO tags ->
    constrained Viterbi decode -> shared span codec;
    /root/reference/labeling/model.py:14-162 + crf.py).

    Weights load from an ``.npz`` checkpoint or initialize from a seeded
    RNG (untrained: output tags are arbitrary but always BIESO-LEGAL
    because the decode is the constrained Viterbi — the execution path a
    trained checkpoint would use, exercised end-to-end).  Supplies only
    ``scores``; ``ViterbiLabeler.__call__`` emits the TRIPLES schema, so
    it drops into ``PipelineConfig(labeler_cls=...)`` unchanged.
    """

    def __init__(self, checkpoint_path: str | None = None,
                 embed_dim: int = 32, hidden: int = 32, seed: int = 0,
                 encoding_type: str = "bieso"):
        import numpy as np

        from kgray.schema import NUM_SCHEMAS

        super().__init__(encoding_type)
        self.n_tags = len(BIESO_TAGS)
        if checkpoint_path is not None:
            self.w, self.char2id = _load_char_checkpoint(checkpoint_path)
        else:
            rs = np.random.RandomState(seed)
            V = 4099  # hashed char vocab (unseen chars bucket by hash)
            D, H = embed_dim, hidden
            In = D + NUM_SCHEMAS
            def g(*shape):
                return rs.normal(scale=0.1, size=shape)
            self.w = {
                "embed": g(V, D),
                # fused gate weights (i,f,g,o) per direction
                "fw_Wx": g(In, 4 * H), "fw_Wh": g(H, 4 * H), "fw_b": g(4 * H),
                "bw_Wx": g(In, 4 * H), "bw_Wh": g(H, 4 * H), "bw_b": g(4 * H),
                "fc_w": g(2 * H, self.n_tags), "fc_b": g(self.n_tags),
            }
            self.char2id = None  # hashed ids

    def save(self, path: str) -> None:
        """Write the ``.npz`` checkpoint spec this class loads: flat arrays

        - ``embed`` (V, D) char embedding (id 0 = pad/unk);
        - ``fw_Wx``/``bw_Wx`` (D+50, 4H), ``fw_Wh``/``bw_Wh`` (H, 4H),
          ``fw_b``/``bw_b`` (4H,) — fused (i,f,g,o) LSTM gates per
          direction;
        - ``fc_w`` (2H, n_tags), ``fc_b`` (n_tags,);
        - optional ``chars`` (V-1,) object array: chars[i] has id i+1
          (omitted -> hashed char vocab).

        A trained reference checkpoint (labeling/model.py:14-162) converts
        by exporting each torch tensor under these names — the
        convert_tf_checkpoint_to_pytorch.py:30-41 shape of artifact prep.
        """
        import numpy as np

        arrays = dict(self.w)
        if self.char2id is not None:
            arrays["chars"] = np.asarray(
                [c for c, _ in sorted(self.char2id.items(), key=lambda x: x[1])],
                object,
            )
        np.savez(path, **arrays)

    def _char_ids(self, text: str) -> "np.ndarray":
        import numpy as np

        if self.char2id is not None:
            return np.asarray(
                [self.char2id.get(c, 0) for c in text], np.int64
            )
        V = self.w["embed"].shape[0]
        return np.asarray([(ord(c) % (V - 1)) + 1 for c in text], np.int64)

    @staticmethod
    def _lstm(X, Wx, Wh, b, reverse=False):
        """Batched single-layer LSTM scan: X (B, L, In) -> (B, L, H)."""
        import numpy as np

        B, L, _ = X.shape
        H = Wh.shape[0]
        h = np.zeros((B, H))
        c = np.zeros((B, H))
        out = np.zeros((B, L, H))
        steps = range(L - 1, -1, -1) if reverse else range(L)
        for t in steps:
            z = X[:, t] @ Wx + h @ Wh + b  # (B, 4H)
            i = 1 / (1 + np.exp(-z[:, :H]))
            f = 1 / (1 + np.exp(-z[:, H:2 * H]))
            gg = np.tanh(z[:, 2 * H:3 * H])
            o = 1 / (1 + np.exp(-z[:, 3 * H:]))
            c = f * c + i * gg
            h = o * np.tanh(c)
            out[:, t] = h
        return out

    def scores(self, texts: list[str], sids: list[int]):
        """(B, Lmax, n_tags) emission scores + (B, Lmax) mask."""
        import numpy as np

        from kgray.schema import NUM_SCHEMAS

        B = len(texts)
        L = max((len(t) for t in texts), default=0)
        L = max(L, 1)
        D = self.w["embed"].shape[1]
        X = np.zeros((B, L, D + NUM_SCHEMAS))
        mask = np.zeros((B, L), bool)
        for bi, (text, sid) in enumerate(zip(texts, sids)):
            if text:
                ids = self._char_ids(text)
                X[bi, : len(ids), :D] = self.w["embed"][ids]
                X[bi, : len(ids), D + int(sid)] = 1.0  # schema one-hot
                mask[bi, : len(ids)] = True
        fw = self._lstm(X, self.w["fw_Wx"], self.w["fw_Wh"], self.w["fw_b"])
        bw = self._lstm(X, self.w["bw_Wx"], self.w["bw_Wh"], self.w["bw_b"],
                        reverse=True)
        feats = np.concatenate([fw, bw], axis=2)
        return feats @ self.w["fc_w"] + self.w["fc_b"], mask


def _load_char_checkpoint(path: str) -> tuple[dict, dict | None]:
    """(weights, char2id) of a labeler ``.npz`` checkpoint.  "chars" is
    optional: absent -> hashed char vocab (the seeded default, char2id
    None); present -> explicit char->id table (id = index+1)."""
    import numpy as np

    ckpt = np.load(path, allow_pickle=True)
    w = {k: ckpt[k] for k in ckpt.files if k != "chars"}
    char2id = ({c: i + 1 for i, c in enumerate(ckpt["chars"].tolist())}
               if "chars" in ckpt.files else None)
    return w, char2id


# ---------------------------------------------------------------------------
# shared numpy transformer encoder (closes A2 + A5 in one module)
# ---------------------------------------------------------------------------

def _layernorm(x, g, b, eps: float = 1e-6):
    import numpy as np

    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * g + b


def _softmax(x, axis: int = -1):
    import numpy as np

    m = x.max(axis=axis, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=axis, keepdims=True)


def _gelu(x):
    import numpy as np

    return 0.5 * x * (1.0 + np.tanh(
        np.sqrt(2.0 / np.pi) * (x + 0.044715 * x ** 3)
    ))


def init_encoder_layers(rs, model_size: int, num_layers: int, num_head: int,
                        key_size: int, value_size: int, inner_size: int,
                        scale: float = 0.1) -> list[dict]:
    """Seeded transformer-encoder weights, one dict per layer.

    Per-layer arrays (the npz spec uses these names prefixed ``l{i}_``):
    ``Wq``/``Wk`` (model, head*key), ``Wv`` (model, head*value),
    ``Wo`` (head*value, model), ``bo`` (model,), ``ln1_g``/``ln1_b``
    (model,), ``ffn_w1`` (model, inner), ``ffn_b1`` (inner,),
    ``ffn_w2`` (inner, model), ``ffn_b2`` (model,), ``ln2_g``/``ln2_b``
    (model,)."""
    import numpy as np

    def g(*shape):
        return rs.normal(scale=scale, size=shape)

    layers = []
    for _ in range(num_layers):
        layers.append({
            "Wq": g(model_size, num_head * key_size),
            "Wk": g(model_size, num_head * key_size),
            "Wv": g(model_size, num_head * value_size),
            "Wo": g(num_head * value_size, model_size),
            "bo": g(model_size),
            "ln1_g": np.ones(model_size), "ln1_b": np.zeros(model_size),
            "ffn_w1": g(model_size, inner_size), "ffn_b1": g(inner_size),
            "ffn_w2": g(inner_size, model_size), "ffn_b2": g(model_size),
            "ln2_g": np.ones(model_size), "ln2_b": np.zeros(model_size),
        })
    return layers


def encoder_forward(X, mask, layers: list[dict], num_head: int,
                    activation: str = "relu"):
    """Post-norm multi-head-attention transformer encoder forward.

    X (B, L, D) float, mask (B, L) bool.  Each layer: masked scaled-dot
    MHA (additive -1e9 bias on padded KEY positions) -> residual ->
    LayerNorm -> position-wise FFN (relu for the fastNLP encoder shape,
    gelu for the BERT shape) -> residual -> LayerNorm; padded positions
    are zeroed after every layer.  Pure batched numpy einsum/matmul — the
    execution path a trained checkpoint runs.
    """
    import numpy as np

    B, L, _ = X.shape
    # match X's dtype: a float64 bias would upcast every attention tensor
    bias = np.where(mask[:, None, None, :], 0.0, -1e9).astype(X.dtype)
    act = _gelu if activation == "gelu" else (lambda v: np.maximum(v, 0.0))
    for ly in layers:
        dk = ly["Wq"].shape[1] // num_head
        dv = ly["Wv"].shape[1] // num_head

        def heads(M, d):
            return M.reshape(B, L, num_head, d).transpose(0, 2, 1, 3)

        Q = heads(X @ ly["Wq"], dk)
        K = heads(X @ ly["Wk"], dk)
        V = heads(X @ ly["Wv"], dv)
        att = _softmax(Q @ K.transpose(0, 1, 3, 2) / np.sqrt(dk) + bias)
        ctx = (att @ V).transpose(0, 2, 1, 3).reshape(B, L, num_head * dv)
        X = _layernorm(X + ctx @ ly["Wo"] + ly["bo"], ly["ln1_g"], ly["ln1_b"])
        f = act(X @ ly["ffn_w1"] + ly["ffn_b1"]) @ ly["ffn_w2"] + ly["ffn_b2"]
        X = _layernorm(X + f, ly["ln2_g"], ly["ln2_b"])
        X = X * mask[:, :, None]
    return X


def _layers_to_flat(layers: list[dict]) -> dict:
    return {f"l{i}_{k}": v for i, ly in enumerate(layers) for k, v in ly.items()}


def _flat_to_layers(w: dict) -> list[dict]:
    import re

    layers: dict[int, dict] = {}
    for key, v in w.items():
        m = re.match(r"l(\d+)_(.+)", key)
        if m:
            layers.setdefault(int(m.group(1)), {})[m.group(2)] = v
    return [layers[i] for i in sorted(layers)]


def _cast_f32(w: dict) -> dict:
    """float32 forward everywhere: halves the attention-matrix footprint,
    which matters on this VM where fresh large allocations fault at
    ~5 MB/s (CLAUDE.md)."""
    import numpy as np

    return {
        k: v.astype(np.float32) if getattr(v, "dtype", None) is not None
        and np.issubdtype(v.dtype, np.floating) else v
        for k, v in w.items()
    }


class NumpyTransformerCrfLabeler(NumpyBiLstmCrfLabeler):
    """A5 executable without torch: the reference TransformerSeqLabel
    forward (/root/reference/labeling/model.py:165-299, config.py:44-49 —
    4 layers, 4 heads, key/value 64, inner 256) in batched numpy:

    char embedding + schema one-hot -> input LayerNorm (norm1) ->
    transformer encoder (masked MHA + relu FFN, post-norm residuals, the
    fastNLP TransformerEncoder shape) -> Linear over 9 BIESO tags ->
    the SAME constrained Viterbi + span codec as every other labeler.

    Checkpoint spec (``save``/``checkpoint_path`` npz): ``embed`` (V, D),
    ``norm1_g``/``norm1_b`` (D+50,), per-layer ``l{i}_*`` arrays (see
    init_encoder_layers), ``fc_w`` (D+50, 9), ``fc_b`` (9,), optional
    ``chars``.  Inherits the TRIPLES-emitting ``__call__`` so it drops
    into ``PipelineConfig(labeler_cls=...)`` unchanged.
    """

    def __init__(self, checkpoint_path: str | None = None,
                 embed_dim: int = 32, seed: int = 0,
                 encoding_type: str = "bieso", num_layers: int = 4,
                 num_head: int = 4, key_size: int = 64,
                 value_size: int = 64, inner_size: int = 256):
        import numpy as np

        from kgray.schema import NUM_SCHEMAS

        ViterbiLabeler.__init__(self, encoding_type)
        self.n_tags = len(BIESO_TAGS)
        self.num_head = num_head
        if checkpoint_path is not None:
            self.w, self.char2id = _load_char_checkpoint(checkpoint_path)
        else:
            rs = np.random.RandomState(seed)
            V = 4099  # hashed char vocab, as the BiLSTM default
            D = embed_dim
            model = D + NUM_SCHEMAS
            self.w = {
                "embed": rs.normal(scale=0.1, size=(V, D)),
                "norm1_g": np.ones(model), "norm1_b": np.zeros(model),
                "fc_w": rs.normal(scale=0.1, size=(model, self.n_tags)),
                "fc_b": rs.normal(scale=0.1, size=self.n_tags),
            }
            self.w.update(_layers_to_flat(init_encoder_layers(
                rs, model, num_layers, num_head, key_size, value_size,
                inner_size,
            )))
            self.char2id = None
        self.w = _cast_f32(self.w)
        self._layers = _flat_to_layers(self.w)

    # Attention is O(B*heads*L^2) and numpy intermediates above glibc's
    # ~32 MB mmap-threshold ceiling never recycle — every layer faults
    # fresh pages at ~5 MB/s on this VM (CLAUDE.md).  Capping
    # B_chunk * L_chunk^2 at 150k keeps the (B,4,L,L) float32 attention
    # array ~2.4 MB so the allocator reuses warm heap memory between
    # chunks: measured 49.5s -> 0.8s for a 512-row fan-out batch.
    _ATT_ELEMS_CAP = 150_000

    def scores(self, texts: list[str], sids: list[int]):
        """(B, Lmax, n_tags) emission scores + (B, Lmax) mask.

        Length-sorted chunking: rows are processed in ascending-length
        chunks (similar pad length per chunk, bounded attention
        footprint), then scattered back to batch order."""
        import numpy as np

        from kgray.schema import NUM_SCHEMAS

        B = len(texts)
        lens = np.asarray([len(t) for t in texts], np.int64)
        Lmax = max(int(lens.max(initial=0)), 1)
        D = self.w["embed"].shape[1]
        emis = np.zeros((B, Lmax, self.n_tags), np.float32)
        mask = np.zeros((B, Lmax), bool)
        order = np.argsort(lens, kind="stable")
        start = 0
        while start < B:
            Lc = max(int(lens[order[start]]), 1)
            end = start
            while end < B:
                Lc = max(Lc, int(lens[order[end]]), 1)
                if end > start and (end - start + 1) * Lc * Lc > self._ATT_ELEMS_CAP:
                    break
                end += 1
            idx = order[start:end]
            Bc = len(idx)
            X = np.zeros((Bc, Lc, D + NUM_SCHEMAS), np.float32)
            m = np.zeros((Bc, Lc), bool)
            for bi, ri in enumerate(idx):
                text = texts[ri]
                if text:
                    ids = self._char_ids(text)
                    X[bi, : len(ids), :D] = self.w["embed"][ids]
                    X[bi, : len(ids), D + int(sids[ri])] = 1.0
                    m[bi, : len(ids)] = True
            X = _layernorm(X, self.w["norm1_g"], self.w["norm1_b"])
            X = encoder_forward(X, m, self._layers, self.num_head,
                                activation="relu")
            emis[idx, :Lc] = X @ self.w["fc_w"] + self.w["fc_b"]
            mask[idx, :Lc] = m
            start = end
        return emis, mask


class NumpyBertScorer:
    """A2 executable without torch: the BertForMultiLabelSequence-
    Classification forward (/root/reference/classification/
    model_bert.py:14-118) in batched numpy over the existing WordPiece
    feature path (kgray.ops.wordpiece):

    input_ids -> word+position+segment embeddings -> LayerNorm ->
    N-layer transformer encoder (masked MHA, gelu FFN, post-norm — the
    BERT layer shape) -> pooler tanh(W·h_[CLS]) -> Linear(hidden -> 50)
    -> sigmoid, appended as the same ``scores`` column CueClassifier
    emits.  Default dims are scaled down (hidden 64, 2 layers) for a
    CPU-only container; the reference's 12x768x12x3072 config loads
    through the identical checkpoint spec and code path.

    Checkpoint spec (``save``/``checkpoint_path`` npz): ``word_emb``
    (V, H), ``pos_emb`` (max_seq, H), ``type_emb`` (2, H),
    ``emb_ln_g``/``emb_ln_b`` (H,), per-layer ``l{i}_*`` (see
    init_encoder_layers; key/value size = H/num_head, BERT convention),
    ``pool_w`` (H, H), ``pool_b`` (H,), ``cls_w`` (H, 50), ``cls_b``
    (50,), ``vocab_tokens`` (V,) object array (token with id i at
    index i).
    """

    def __init__(self, checkpoint_path: str | None = None,
                 vocab: dict[str, int] | None = None,
                 hidden_size: int = 64, num_layers: int = 2,
                 num_head: int = 4, inner_size: int = 256,
                 max_seq_length: int = 64, seed: int = 0,
                 text_col: str = "text"):
        import numpy as np

        from kgray.ops.wordpiece import WordPieceTokenizer
        from kgray.schema import NUM_SCHEMAS

        self.text_col = text_col
        if checkpoint_path is not None:
            ckpt = np.load(checkpoint_path, allow_pickle=True)
            self.w = {k: ckpt[k] for k in ckpt.files if k != "vocab_tokens"}
            vocab = {t: i for i, t in enumerate(ckpt["vocab_tokens"].tolist())}
            self.num_head = int(self.w.pop("num_head"))
            max_seq_length = int(self.w["pos_emb"].shape[0])
        else:
            self.num_head = num_head
            rs = np.random.RandomState(seed)
            tok_probe = WordPieceTokenizer(
                vocab=vocab, max_seq_length=max_seq_length, text_col=text_col
            )
            V = max(tok_probe.vocab.values()) + 1
            H = hidden_size
            kv = max(1, H // num_head)

            def g(*shape):
                return rs.normal(scale=0.1, size=shape)

            self.w = {
                "word_emb": g(V, H),
                "pos_emb": g(max_seq_length, H),
                "type_emb": g(2, H),
                "emb_ln_g": np.ones(H), "emb_ln_b": np.zeros(H),
                "pool_w": g(H, H), "pool_b": g(H),
                "cls_w": g(H, NUM_SCHEMAS), "cls_b": g(NUM_SCHEMAS),
            }
            self.w.update(_layers_to_flat(init_encoder_layers(
                rs, H, num_layers, num_head, kv, kv, inner_size,
            )))
            vocab = tok_probe.vocab
        self.w = _cast_f32(self.w)
        self._layers = _flat_to_layers(self.w)
        self.tokenizer = WordPieceTokenizer(
            vocab=vocab, max_seq_length=max_seq_length, text_col=text_col
        )

    def save(self, path: str) -> None:
        import numpy as np

        vocab_tokens = [
            t for t, _ in sorted(self.tokenizer.vocab.items(), key=lambda x: x[1])
        ]
        np.savez(path, vocab_tokens=np.asarray(vocab_tokens, object),
                 num_head=np.int64(self.num_head), **self.w)

    # same warm-buffer chunking as NumpyTransformerCrfLabeler (L is the
    # fixed max_seq_length here, so this just bounds rows per chunk)
    _ATT_ELEMS_CAP = 150_000

    def forward(self, texts: list[str]):
        """Returns (n, 50) float32 sigmoid probabilities."""
        import numpy as np

        n = len(texts)
        L = self.tokenizer.max_seq_length
        ids = np.zeros((n, L), np.int64)
        mask = np.zeros((n, L), bool)
        for i, text in enumerate(texts):
            row_ids, row_mask, _ = self.tokenizer.features(text)
            ids[i] = row_ids
            mask[i] = np.asarray(row_mask, bool)
        step = max(1, self._ATT_ELEMS_CAP // (L * L))
        out = np.empty((n, self.w["cls_b"].shape[0]), np.float32)
        for s in range(0, n, step):
            e = min(n, s + step)
            X = (self.w["word_emb"][ids[s:e]] + self.w["pos_emb"][None, :L]
                 + self.w["type_emb"][0][None, None, :])
            X = _layernorm(X, self.w["emb_ln_g"], self.w["emb_ln_b"])
            X = encoder_forward(X, mask[s:e], self._layers, self.num_head,
                                activation="gelu")
            pooled = np.tanh(X[:, 0] @ self.w["pool_w"] + self.w["pool_b"])
            logits = pooled @ self.w["cls_w"] + self.w["cls_b"]
            out[s:e] = 1.0 / (1.0 + np.exp(-logits))
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        return with_scores(batch, self.forward(batch[self.text_col].to_pylist()))


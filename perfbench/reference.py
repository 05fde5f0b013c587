"""Independent decoders and a reference forward pass for the output checks.

Nothing here calls crashcast's network or data code: the DPMD file is decoded
with a numpy record dtype built from the format description, and the forward
pass is written from the ConvLSTM and LSTM gate equations with a direct
(offset-by-offset) convolution instead of the package's im2col.
"""

import struct

import numpy as np

DPMD_HEADER = 22


def dpmd_layout(blob):
    """(count, L, cameras, rows, cols) from a DPMD header."""
    if blob[:4] != b"DPMD":
        raise ValueError("not a DPMD file")
    (count,) = struct.unpack_from("<Q", blob, 8)
    seq_len, cams, rows, cols = struct.unpack_from("<BBHH", blob, 16)
    return count, seq_len, cams, rows, cols


def dpmd_size(count, seq_len, cams, rows, cols):
    return DPMD_HEADER + count * (1 + seq_len * (cams * rows * cols + 40))


def decode_dpmd(blob):
    """Returns labels (N,), images (N, L, C, rows, cols) uint8, states (N, L, 9), actions (N, L)."""
    count, seq_len, cams, rows, cols = dpmd_layout(blob)
    frame = np.dtype([("img", np.uint8, (cams, rows, cols)), ("state", "<f4", (9,)),
                      ("action", "<f4")])
    record = np.dtype([("label", np.uint8), ("frames", frame, (seq_len,))])
    recs = np.frombuffer(blob, dtype=record, count=count, offset=DPMD_HEADER)
    fr = recs["frames"]
    return (recs["label"].astype(np.int64), fr["img"], fr["state"].astype(np.float64),
            fr["action"].astype(np.float64))


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _conv_same(x, k, stride):
    """Same-padded, top-left anchored conv of x (q, r, c) with k (m, n, c, p)."""
    m, n, _c, p = k.shape
    q, r = x.shape[:2]
    oq, orr = -(-q // stride), -(-r // stride)
    xp = np.zeros((q + 2 * (m // 2), r + 2 * (n // 2), x.shape[2]))
    xp[m // 2 : m // 2 + q, n // 2 : n // 2 + r] = x
    out = np.zeros((oq, orr, p))
    for u in range(m):
        for v in range(n):
            out += xp[u : u + (oq - 1) * stride + 1 : stride,
                      v : v + (orr - 1) * stride + 1 : stride] @ k[u, v]
    return out


def reference_p_collision(config, tensors, masks, images, states, actions):
    """P(collision) for one sample from the gate equations.

    tensors: name -> array (checkpoint names); masks: name -> mask or {};
    images: (L, C, rows, cols) uint8 in dataset camera order; states (L, 9);
    actions (L,).
    """
    def w(name):
        t = tensors[name]
        return t * masks[name] if name in masks else t

    order = ("left_mirror", "dashcam", "right_mirror")
    feats = []
    for cam in config.cameras:
        xs = [images[t, order.index(cam)][:, :, None] / 255.0 for t in range(config.seq_len)]
        for li, stride in enumerate(config.conv_strides):
            pre = f"cam.{cam}.l{li}."
            p = config.conv_filters[li]
            oq, orr = -(-xs[0].shape[0] // stride), -(-xs[0].shape[1] // stride)
            h = np.zeros((oq, orr, p))
            c = np.zeros((oq, orr, p))
            outs = []
            for x in xs:
                def z(g, s=stride, x=x, h=h):
                    return _conv_same(x, w(pre + "w_x" + g), s) + _conv_same(h, w(pre + "w_h" + g), 1)
                gi = _sigmoid(z("i") + w(pre + "w_ci") * c + tensors[pre + "b_i"])
                gf = _sigmoid(z("f") + w(pre + "w_cf") * c + tensors[pre + "b_f"])
                c = gf * c + gi * np.tanh(z("c") + tensors[pre + "b_c"])
                go = _sigmoid(z("o") + w(pre + "w_co") * c + tensors[pre + "b_o"])
                h = go * np.tanh(c)
                outs.append(h)
            xs = outs if config.conv_return_sequences[li] else [outs[-1]]
        feats.append(xs[-1].reshape(-1))
    if config.has_state_branch:
        u = config.lstm_units
        h = np.zeros(u)
        c = np.zeros(u)
        for t in range(config.seq_len):
            x = states[t] if config.state_dim == 9 else np.append(states[t], actions[t])

            def z(g, x=x, h=h):
                return w("lstm.w_x" + g) @ x + w("lstm.w_h" + g) @ h
            gi = _sigmoid(z("i") + w("lstm.w_ci") * c + tensors["lstm.b_i"])
            gf = _sigmoid(z("f") + w("lstm.w_cf") * c + tensors["lstm.b_f"])
            c = gf * c + gi * np.tanh(z("c") + tensors["lstm.b_c"])
            go = _sigmoid(z("o") + w("lstm.w_co") * c + tensors["lstm.b_o"])
            h = go * np.tanh(c)
        feats.append(h)
    feat = np.concatenate(feats)
    hidden = np.maximum(tensors["head.w_merge"] @ feat + tensors["head.b_merge"], 0.0)
    logits = tensors["head.w_out"] @ hidden + tensors["head.b_out"]
    e = np.exp(logits - logits.max())
    return float(e[0] / e.sum())

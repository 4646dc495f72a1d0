"""Independent brute-force reference implementations.

Everything here is deliberately written with scalar loops and plain formulas
so it shares no code path with the library; the test suite holds the library
to these references.
"""

import math

import numpy as np


def ema_recurrence(values, alpha):
    """Direct per-scalar EMA recurrence in float32."""
    x = np.asarray(values, dtype=np.float32)
    a = np.float32(alpha)
    out = np.empty_like(x)
    for c in range(x.shape[1]):
        y = x[0, c]
        out[0, c] = y
        for t in range(1, len(x)):
            y = y + a * (x[t, c] - y)
            out[t, c] = y
    return out


CSV_COLUMNS = "timestamp,fx,fy,fz"


class CsvRowError(Exception):
    """The row-by-row parser's verdict on a file; `kind` names the exception
    class the library raises for it."""

    def __init__(self, kind, message):
        super().__init__(message)
        self.kind = kind


def csv_write_rows(timestamps, forces):
    """Trace CSV bytes, one f-string per row over float32 scalars."""
    out = CSV_COLUMNS + "\n"
    for t, (x, y, z) in zip(np.asarray(timestamps, np.float32), np.asarray(forces, np.float32)):
        out += f"{t},{x},{y},{z}\n"
    return out.encode("utf-8")


def csv_parse_rows(text):
    """Parse trace CSV text row by row into a (T, 4) float32 array; raises
    CsvRowError for the header, then for the first bad row in file order."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != CSV_COLUMNS:
        got = lines[0].strip() if lines else "<empty file>"
        raise CsvRowError("SchemaError", f"expected header {CSV_COLUMNS!r}, got {got!r}")
    rows = np.empty((len(lines) - 1, 4), dtype=np.float32)
    for i, line in enumerate(lines[1:]):
        parts = line.split(",")
        if len(parts) != 4:
            raise CsvRowError("SchemaError", f"row {i}: expected 4 columns, got {len(parts)}")
        if any(c == "_" or ord(c) > 127 for c in line):  # a writer spells values in ASCII
            raise CsvRowError("DataError",
                              f"row {i}: non-numeric value ({line!r} holds '_' or non-ASCII)")
        try:
            vals = [float(p) for p in parts]
        except ValueError as exc:
            raise CsvRowError("DataError", f"row {i}: non-numeric value ({exc})") from None
        if not all(math.isfinite(v) for v in vals):
            raise CsvRowError("DataError", f"row {i}: non-finite value in {parts}")
        rows[i] = vals
    if len(rows) == 0:
        raise CsvRowError("EmptyTraceError", "CSV contains a header but no data rows")
    return rows


def table1_features(forces, rate):
    """Force-difference norm, velocity, acceleration, jerk and their norms,
    computed row by row in float64 from the raw definitions."""
    f = np.asarray(forces, dtype=np.float64)
    s = float(rate)
    t_len = len(f)
    vel = [[(f[t + 1, i] - f[t, i]) * s for i in range(3)] for t in range(t_len - 1)]
    acc = [[(vel[t + 1][i] - vel[t][i]) * s for i in range(3)] for t in range(t_len - 2)]
    jrk = [[(acc[t + 1][i] - acc[t][i]) * s for i in range(3)] for t in range(t_len - 3)]
    n = t_len - 3
    out = np.zeros((n, 13), dtype=np.float64)
    for t in range(n):
        d = [f[t + 1, i] - f[t, i] for i in range(3)]
        out[t, 0] = math.sqrt(d[0] ** 2 + d[1] ** 2 + d[2] ** 2)
        out[t, 1:4] = vel[t]
        out[t, 4] = math.sqrt(sum(v * v for v in vel[t]))
        out[t, 5:8] = acc[t]
        out[t, 8] = math.sqrt(sum(a * a for a in acc[t]))
        out[t, 9:12] = jrk[t]
        out[t, 12] = math.sqrt(sum(j * j for j in jrk[t]))
    return out


def matmul_loops(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    n, m = a.shape
    m2, p = b.shape
    assert m == m2
    out = np.zeros((n, p), dtype=np.float64)
    for i in range(n):
        for j in range(p):
            acc = 0.0
            for k in range(m):
                acc += float(a[i, k]) * float(b[k, j])
            out[i, j] = acc
    return out


def softmax_rows(z):
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    for i in range(len(z)):
        e = np.exp(z[i] - z[i].max())
        out[i] = e / e.sum()
    return out


def attention_per_head(x, wq, wk, wv, wo, num_heads):
    """Multi-head attention as an explicit per-batch, per-head loop."""
    x = np.asarray(x, dtype=np.float64)
    bsz, length, d = x.shape
    dh = d // num_heads
    out = np.empty((bsz, length, d), dtype=np.float64)
    for b in range(bsz):
        q = x[b] @ np.asarray(wq, dtype=np.float64)
        k = x[b] @ np.asarray(wk, dtype=np.float64)
        v = x[b] @ np.asarray(wv, dtype=np.float64)
        heads = []
        for h in range(num_heads):
            sl = slice(h * dh, (h + 1) * dh)
            scores = (q[:, sl] @ k[:, sl].T) / math.sqrt(dh)
            weights = softmax_rows(scores)
            heads.append(weights @ v[:, sl])
        out[b] = np.concatenate(heads, axis=1) @ np.asarray(wo, dtype=np.float64)
    return out


def layer_norm_rows(s, gamma, beta, eps=1e-5):
    """Layer norm over the last axis, row by row in float64: the mean in one
    pass, the population variance about it in a second."""
    s = np.asarray(s, dtype=np.float64)
    out = np.empty_like(s)
    for idx in np.ndindex(s.shape[:-1]):
        row = [float(v) for v in s[idx]]
        mean = sum(row) / len(row)
        var = sum((v - mean) ** 2 for v in row) / len(row)
        inv_std = 1.0 / math.sqrt(var + eps)
        out[idx] = [float(g) * (v - mean) * inv_std + float(b)
                    for v, g, b in zip(row, gamma, beta)]
    return out


def cross_entropy_per_sample(logits, labels):
    z = np.asarray(logits, dtype=np.float64)
    losses = []
    for row, label in zip(z, labels):
        p = np.exp(row) / np.exp(row).sum()
        losses.append(-math.log(p[int(label)]))
    return sum(losses) / len(losses)


def adam_scalar_trajectory(theta0, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook Adam recurrences on one scalar parameter."""
    theta = float(theta0)
    m = 0.0
    v = 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        theta = theta - lr * m_hat / (math.sqrt(v_hat) + eps)
        out.append(theta)
    return out


def adam_array_trajectory(theta0, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook Adam on one array, in the array's dtype, with a fresh m and
    v per step; returns the parameters after the last gradient."""
    theta = np.array(theta0)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * (g * g)
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
    return theta


def two_pass_stats(seqs):
    """Pooled per-channel mean and population std via explicit two passes."""
    rows = [row for s in seqs for row in np.asarray(s, dtype=np.float64)]
    n = len(rows)
    c = len(rows[0])
    mean = np.zeros(c)
    for row in rows:
        mean += row
    mean /= n
    var = np.zeros(c)
    for row in rows:
        var += (row - mean) ** 2
    var /= n
    return mean, np.sqrt(var)


def count_confusion(preds, labels, num_classes):
    mat = [[0] * num_classes for _ in range(num_classes)]
    for p, y in zip(preds, labels):
        mat[int(y)][int(p)] += 1
    return np.array(mat, dtype=np.int64)


def accuracy_precision(mat):
    mat = np.asarray(mat)
    total = int(mat.sum())
    correct = sum(int(mat[i, i]) for i in range(len(mat)))
    precisions = []
    for j in range(len(mat)):
        col = sum(int(mat[i, j]) for i in range(len(mat)))
        precisions.append(int(mat[j, j]) / col if col else 0.0)
    return correct / total, precisions

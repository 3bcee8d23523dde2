"""Independent reference implementations that the fast paths are tested
against. Deliberately written the slow, obvious way."""

import numpy as np


def naive_conv2d(x, weights, bias, stride, padding):
    """Quadruple-loop cross-correlation in float64."""
    h, w, cin = x.shape
    cout, cin_w, kh, kw = weights.shape
    assert cin == cin_w
    xp = np.zeros((h + 2 * padding, w + 2 * padding, cin), dtype=np.float64)
    xp[padding:padding + h, padding:padding + w, :] = x
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((ho, wo, cout), dtype=np.float64)
    for oi in range(ho):
        for oj in range(wo):
            for oc in range(cout):
                acc = 0.0
                for ki in range(kh):
                    for kj in range(kw):
                        for ic in range(cin):
                            acc += xp[oi * stride + ki, oj * stride + kj, ic] \
                                * float(weights[oc, ic, ki, kj])
                if bias is not None:
                    acc += float(bias[oc])
                out[oi, oj, oc] = acc
    return out


def paint_receptive_fields(attention, kernel, stride, padding, out_size):
    """Rectangle painting: each neuron adds its activation over its
    receptive-field rectangle, clipped at the borders. No conv machinery."""
    a = np.asarray(attention, dtype=np.float64)
    n = a.shape[0]
    out = np.zeros((out_size, out_size), dtype=np.float64)
    for i in range(n):
        for j in range(n):
            top = i * stride - padding
            left = j * stride - padding
            r0, r1 = max(top, 0), min(top + kernel, out_size)
            c0, c1 = max(left, 0), min(left + kernel, out_size)
            if r0 < r1 and c0 < c1:
                out[r0:r1, c0:c1] += a[i, j]
    return out


def grayscale(frame):
    """BT.601 luma of the whole frame, converted to float64 first; float32
    output."""
    f = np.asarray(frame, dtype=np.float64)
    return (0.299 * f[..., 0] + 0.587 * f[..., 1] + 0.114 * f[..., 2]).astype(np.float32)


def bilinear_resize(img, out_h, out_w):
    """Half-pixel-center bilinear resample as first written, gathering each
    corner row again for each product; float32 output."""
    a = np.asarray(img, dtype=np.float64)
    h, w = a.shape
    ys = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    top = a[y0][:, x0] * (1.0 - wx) + a[y0][:, x1] * wx
    bot = a[y1][:, x0] * (1.0 - wx) + a[y1][:, x1] * wx
    return (top * (1.0 - wy) + bot * wy).astype(np.float32)


def pairwise_auc(pos_vals, neg_vals):
    """All pos x neg comparisons, ties at half weight."""
    wins = 0.0
    for p in pos_vals:
        for q in neg_vals:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos_vals) * len(neg_vals))


def csv_fixation_rows(path):
    """A fixation CSV read row by row with csv and int(): ("rows", [[f, x, y],
    ...]) or ("error", message). Values must fit int64; blank rows are skipped."""
    import csv

    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader)
        assert header == ["frame_index", "x", "y"]
        rows = []
        for row in reader:
            if not row:
                continue
            lineno = reader.line_num  # the line the row ends on, header included
            if len(row) != 3:
                return "error", f"{path}:{lineno}: expected 3 fields, got {len(row)}"
            try:
                values = [int(field) for field in row]
            except ValueError:
                return "error", f"{path}:{lineno}: non-integer field"
            if any(v < -2**63 or v >= 2**63 for v in values):
                return "error", f"{path}:{lineno}: value outside the int64 range"
            rows.append(values)
    return "rows", rows

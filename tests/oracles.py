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
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
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

"""Acceptance gate: nine go/no-go checks covering parameter counts, the
attention nonlinearity, receptive-field rendering, gradients, metric unit
values, preprocessing, metric discrimination, and CLI determinism. Each test
prints a single pass line; a failure shows up as the usual pytest assert."""

import math

import numpy as np
import pytest

from atarisal import cli, metrics as M, models, preprocessing as P, saliency as S
from atarisal import tensor_ops as T

from conftest import write_recording
from oracles import paint_receptive_fields


def passed(n, name):
    print(f"criterion {n} ({name}): PASS")


def test_criterion_1_parameter_counts():
    cases = [
        (models.preset_config("nature-cnn"), 1_686_693),
        (models.preset_config("daqn"), 130_726),
        (models.preset_config("rs-ppo"), 1_720_999),
        (models.preset_config("sparse-fls"), 1_836_710),
        (models.preset_config("sparse-fls", readout="sum-pool"), 263_846),
        (models.preset_config("dense-fls"), 280_358),
        (models.preset_config("sparse-fls", placement="first-conv"), 1_762_982),
        (models.preset_config("sparse-fls", placement="each-conv"), 2_063_016),
    ]
    for cfg, want in cases:
        assert models.count_params(cfg) == want
    passed(1, "parameter counts, tolerance 0")


def test_criterion_2_base2_softplus_identity():
    x = np.linspace(-20.0, 20.0, 10_000)
    got = T.softplus2(x)
    want = np.logaddexp2(0.0, x)  # log2(1 + 2^x), computed stably
    assert float(np.abs(got - want).max()) < 1e-6
    passed(2, "softplus2 identity within 1e-6 on [-20, 20]")


def test_criterion_3_zero_weight_attention_is_ln2():
    model = models.build_model(models.preset_config("sparse-fls"), 0)
    for value in model.params.values():
        value.fill(0)
    obs = np.random.default_rng(0).random((84, 84, 4)).astype(np.float32)
    (tag, amap), = model.forward(obs)
    assert tag == "block"
    assert float(np.abs(amap.astype(np.float64) - math.log(2.0)).max()) < 1e-7
    passed(3, "zero-weight attention constant ln 2 within 1e-7")


def test_criterion_4_rendering_matches_rectangle_oracle():
    rng = np.random.default_rng(99)
    for geom, n in ((S.RFGeometry(36, 8, 0), 7),
                    (S.RFGeometry(13, 1, 6), 84),
                    (S.RFGeometry(8, 4, 0), 20)):
        for _ in range(100):
            amap = rng.integers(0, 256, size=(n, n)).astype(np.float32)
            got = S.render(amap, geom)
            assert got.shape == (84, 84)
            want = paint_receptive_fields(amap, geom.kernel, geom.stride,
                                          geom.padding, 84)
            assert np.array_equal(got.astype(np.float64), want)
    passed(4, "rendering equals rectangle painting, 100 maps x 3 geometries")


def test_criterion_5_gradient_checks():
    rng = np.random.default_rng(7)
    worst = {}

    def record(tag, err):
        worst[tag] = max(worst.get(tag, 0.0), err)
        assert err < 1e-4, f"{tag}: {err:.3e}"

    for i in range(20):
        # input sizes chosen so the stride covers the input exactly and the
        # adjoint-shaped gradient matches
        k, s, p, h = [(3, 1, 1, 6), (3, 2, 0, 7), (2, 1, 0, 6), (4, 2, 1, 6)][i % 4]
        cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        kern = T.ConvKernel(rng.standard_normal((cout, cin, k, k)).astype(np.float32),
                            stride=s, padding=p)
        x = rng.standard_normal((h, h, cin))
        w = rng.standard_normal(T.conv2d(x, kern).shape)
        record("conv2d", T.grad_check(lambda x, k=kern: T.conv2d(x, k),
                                      lambda x, u, k=kern: T.transposed_conv2d(u, k),
                                      x, weights=w))

        x = rng.standard_normal((5, 5, 2)) * 3.0
        record("softplus", T.grad_check(
            lambda x: T.softplus(x),
            lambda x, u: T.activation_input_grad(x, "softplus", u),
            x, weights=rng.standard_normal(x.shape)))

        x = rng.standard_normal((5, 5, 2))
        record("spatial_softmax", T.grad_check(
            T.spatial_softmax, T.spatial_softmax_input_grad,
            x, weights=rng.standard_normal(x.shape)))

        x = rng.standard_normal((4, 4, 3))
        while float(np.linalg.norm(x, axis=-1).min()) < 0.3:  # stay off the singular point
            x = rng.standard_normal((4, 4, 3))
        record("l2_normalize", T.grad_check(
            T.l2_normalize_locations, T.l2_normalize_input_grad,
            x, weights=rng.standard_normal(x.shape)))

    assert set(worst) == {"conv2d", "softplus", "spatial_softmax", "l2_normalize"}
    passed(5, "analytic gradients within 1e-4 of central differences, 20 instances each: "
              + ", ".join(f"{t}={e:.1e}" for t, e in worst.items()))


def test_criterion_6_metric_unit_values():
    sal = np.array([[0.0, 0.0], [0.0, 2.0]])
    fix = np.array([[0, 0], [0, 1]])
    assert M.nss(sal, fix) == pytest.approx(math.sqrt(3.0), abs=1e-5)

    fix = np.zeros((84, 84), np.int64)
    fix[10, 10] = 1
    fix[60, 30] = 2
    assert M.kl_divergence(M.gaussian_blur(fix), fix) < 1e-6

    sal = np.arange(16.0).reshape(4, 4)
    pos = np.zeros((4, 4), np.int64)
    pos[3, 1:] = 1
    pool = [np.int64(np.arange(16).reshape(4, 4) < 4)]
    assert M.shuffled_auc(sal, pos, pool) == 1.0
    assert M.shuffled_auc(np.full((4, 4), 3.0), pos, pool) == 0.5

    rng = np.random.default_rng(123)
    pos = np.zeros((3, 4), np.int64)
    pos.flat[:6] = 1
    pool = [1 - pos]
    trials = [M.shuffled_auc(rng.random((3, 4)), pos, pool) for _ in range(10_000)]
    assert float(np.mean(trials)) == pytest.approx(0.5, abs=0.02)
    passed(6, "nss sqrt(3), matched kl < 1e-6, sauc {1.0, 0.5}, monte carlo 0.5 +/- 0.02")


def test_criterion_7_preprocessing_contract():
    rng = np.random.default_rng(5)
    frames = [rng.integers(0, 255, size=(210, 160, 3), dtype=np.uint8) for _ in range(32)]
    observations = P.build_observations(frames)
    assert len(observations) == 2
    assert P.retained_indices(0) == (2, 3, 6, 7, 10, 11, 14, 15)
    assert P.retained_indices(1) == (18, 19, 22, 23, 26, 27, 30, 31)

    records = np.array([(2, 5, 7), (3, 5, 7),        # obs 0, same pixel
                        (0, 5, 7),                   # discarded frame
                        (15, 100, 200),              # obs 0
                        (16, 30, 40),                # discarded frame
                        (18, 30, 40), (19, 30, 40),  # obs 1
                        (31, 0, 0),                  # obs 1
                        (40, 8, 8)], dtype=np.int64)  # past both stacks
    for i in range(len(observations)):
        want = np.zeros((210, 160), np.int64)
        for frame_index, x, y in records:
            if frame_index in P.retained_indices(i):
                want[y, x] += 1
        got, rejected = P.fixation_map(records, P.retained_indices(i))
        assert rejected == 0
        assert np.array_equal(got, want)
    fix0, _ = P.fixation_map(records, P.retained_indices(0))
    assert fix0[7, 5] == 2 and fix0[200, 100] == 1 and fix0.sum() == 3
    fix1, _ = P.fixation_map(records, P.retained_indices(1))
    assert fix1[40, 30] == 2 and fix1[0, 0] == 1 and fix1.sum() == 3
    passed(7, "32 frames -> 2 stacks with the right sources; fixation counts exact")


def test_criterion_8_metrics_discriminate_informed_saliency():
    rng = np.random.default_rng(2024)
    n_frames = 50
    fix_maps = []
    cx, cy = 80.0, 105.0
    for _ in range(n_frames):
        cx = float(np.clip(cx + rng.normal(0, 6), 10, 149))
        cy = float(np.clip(cy + rng.normal(0, 6), 10, 199))
        fix = np.zeros((210, 160), np.int64)
        for _ in range(20):
            x = int(np.clip(round(cx + rng.normal(0, 8)), 0, 159))
            y = int(np.clip(round(cy + rng.normal(0, 8)), 0, 209))
            fix[y, x] += 1
        fix_maps.append(fix)

    pool_total = np.sum(fix_maps, axis=0)
    good_scores, rand_scores = [], []
    for i, fix in enumerate(fix_maps):
        pool = [pool_total - fix]
        good_scores.append(M.score_frame(i, M.gaussian_blur(fix), fix, pool))
        rand_scores.append(M.score_frame(i, rng.random((210, 160)), fix, pool))

    good = M.aggregate([good_scores])
    rand = M.aggregate([rand_scores])
    assert good["nss"].n == rand["nss"].n == n_frames

    assert good["nss"].mean > 1.0
    assert abs(rand["nss"].mean) < 0.2
    assert good["nss"].mean > rand["nss"].mean

    assert good["sauc"].mean > 0.6
    assert abs(rand["sauc"].mean - 0.5) < 0.05
    assert good["sauc"].mean > rand["sauc"].mean

    assert good["kl"].mean < rand["kl"].mean
    assert rand["kl"].mean - good["kl"].mean > 0.1
    passed(8, "blurred-fixation saliency beats the random baseline on all three metrics: "
              f"nss {good['nss'].mean:.2f} vs {rand['nss'].mean:.2f}, "
              f"sauc {good['sauc'].mean:.2f} vs {rand['sauc'].mean:.2f}, "
              f"kl {good['kl'].mean:.2f} vs {rand['kl'].mean:.2f}")


def test_criterion_9_eval_is_bitwise_deterministic(tmp_path):
    frames_dir, csv_path = write_recording(tmp_path, 32, seed=9)
    base = tmp_path / "base"
    rc = cli.main(["eval", "--preset", "sparse-fls",
                   "--recording", str(frames_dir), str(csv_path), "--out", str(base)])
    assert rc == 0
    outputs = []
    for name in ("rerun1", "rerun2"):
        out = tmp_path / name
        rc = cli.main(["eval", "--manifest", str(base / "manifest.json"), "--out", str(out)])
        assert rc == 0
        outputs.append(((out / "frames_rec0.csv").read_bytes(),
                        (out / "summary.csv").read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0] == ((base / "frames_rec0.csv").read_bytes(),
                          (base / "summary.csv").read_bytes())
    passed(9, "manifest re-runs reproduce the CSVs byte for byte")

"""End-to-end registration through the command line: a map that tracks the
gazed object must beat its misregistered copies.

`preprocess` turns a synthetic recording (a bright square drifting over
noise, with gaze clustered on it) into observations; each observation's
newest channel, written as an 84x84 `sal_NNNN.raw` dump, is a map that
follows the square. `metrics` then upscales each dump to 210x160 and meets
it with the gaze on the raw frames its observation retains. Every stage
agreeing on geometry is what lets that map score well, so each of these
misregistrations must score worse on NSS, KL and sAUC alike:

- the map shifted 2 px and 8 px right (a render or upscale offset);
- the previous and the next observation's map, clamped at the ends (gaze
  met with the wrong 16 raw frames);
- the map flipped vertically (rows read bottom-up);
- the map transposed (x and y swapped).

The flipped and transposed maps must also sit at chance: NSS near 0 and
sAUC near 0.5.

Measured at this test's size (256 frames, 16 observations, seed 3, a
12-pixel square, 3 fixations per frame); 512 frames give the same order:

| dumps | NSS | KL | sAUC |
|---|---|---|---|
| newest channel | 4.893 | 2.691 | 0.718 |
| shifted 2 px right | 4.514 | 2.715 | 0.700 |
| shifted 8 px right | 1.203 | 3.133 | 0.529 |
| previous observation's | 3.122 | 2.890 | 0.630 |
| next observation's | 1.690 | 3.094 | 0.562 |
| flipped vertically | -0.094 | 3.446 | 0.486 |
| transposed | -0.080 | 3.444 | 0.506 |

The smallest gaps are those to the 2 px shift: 0.379 NSS, 0.024 KL and
0.018 sAUC. The margins below are about half of each, and the chance bounds
about twice the largest distance from chance measured.

The model path runs the same recording through `eval --weights` with a
hand-set dense-fls model whose attention map is softplus(4 v), v being the
newest channel at each pixel: centre taps carry input channel 3 through
`block.conv1`-`conv3` and `attn.conv1`, and `attn.conv2`'s centre weight is
4. So the forward, the 13x13 receptive-field render and the upscale all lie
between that map and the gaze. A copy whose `block.conv1` tap sits 3 px
right or left of centre reads the newest channel 3 px off, and must score
worse on NSS, KL and sAUC alike. Measured at this test's size:

| eval --weights | NSS | KL | sAUC |
|---|---|---|---|
| centre taps | 3.254 | 2.946 | 0.836 |
| `block.conv1` tap 3 px right | 2.775 | 2.990 | 0.817 |
| `block.conv1` tap 3 px left | 2.994 | 2.968 | 0.825 |

With an `attn.conv2` weight of 1 the centre-tap model read 1.064, 3.241 and
0.762, and the right-tap copy 0.939, 3.254 and 0.740. The smallest gaps at
a weight of 4 are those to the left tap: 0.260 NSS, 0.022 KL and 0.012 sAUC.
The model margins below are about half of each.

The sparse model path does the same through sparse-fls, whose 7x7 attention
map is rendered with 36x36 boxes at stride 8. Its 8x8 and 4x4 kernels have
no centre tap, so `block.conv1` and `block.conv2` take uniform means of
input channel 3 over their windows, and `block.conv3` a uniform mean over
its 3x3: each attention cell then reads a weighted mean v of the newest
channel over exactly the 36x36 box it is painted back on. `attn.conv1`
carries v through its centre tap, and `attn.conv2` makes the map
softplus(512 (v - 0.1)): the render adds every cell over its box, 1 to 25
boxes a pixel, so without the bias the ln 2 floor of softplus forms a
centre-weighted pyramid that buries the square (weight 4, no bias: NSS
-0.049, sAUC 0.507). The threshold 0.1 lies above the background's mean of
about 0.076 (noise in [0, 40) of 255). A copy whose `attn.conv1` tap sits
one column right or left of centre reads the map one cell, 8 px at 84x84,
off, and must score worse on NSS, KL and sAUC alike. Measured at this
test's size:

| sparse eval --weights | NSS | KL | sAUC |
|---|---|---|---|
| registered | 2.373 | 1.736 | 0.560 |
| `attn.conv1` tap 1 column right | 1.705 | 4.612 | 0.538 |
| `attn.conv1` tap 1 column left | 1.970 | 2.042 | 0.526 |

The smallest gaps are 0.402 NSS and 0.307 KL to the left tap, and 0.022
sAUC to the right tap; the sparse margins below are about half of each.
Centre taps in `block.conv3`, with its tap moved for the copies, cannot be
told apart this way: they read only columns 8-75 of the 84, so on the
observations where the square sits in an outer 8-pixel strip the centred
map misses it, and its copy with the tap one column right read better on
all three metrics (1.721, 2.239, 0.525 centred against 1.936, 2.068,
0.542, with the same gain and threshold).

The other two sparse placements take the same check, with the same gain
and threshold. At first-conv the 20x20 map reads `block.conv1`, whose
uniform mean gives each cell the newest channel over the 8x8 box, at
stride 4, that it is painted on; a tap one column off is 4 px off at 84x84.
At each-conv the map that carries the channel is conv2's 9x9 one, painted
with 20x20 boxes at stride 8. `attn1`'s gate is softplus(-20), about 2e-9
at every cell, which `block.conv2`'s weights divide back out, and `attn3`'s
map is softplus(-100): on a test observation the two moved the summed
render by at most 3e-10 of its standard deviation. Measured at this
test's size:

| sparse eval --weights | NSS | KL | sAUC |
|---|---|---|---|
| first-conv registered | 5.303 | 1.919 | 0.847 |
| first-conv `attn.conv1` tap 1 column right | 3.743 | 3.690 | 0.781 |
| first-conv `attn.conv1` tap 1 column left | 4.653 | 2.652 | 0.797 |
| each-conv registered | 4.004 | 0.971 | 0.821 |
| each-conv `attn2.conv1` tap 1 column right | 2.374 | 4.313 | 0.684 |
| each-conv `attn2.conv1` tap 1 column left | 2.855 | 1.733 | 0.677 |

At first-conv the smallest gaps are all to the left tap: 0.650 NSS, 0.733
KL and 0.051 sAUC. At each-conv they are 1.150 NSS and 0.763 KL to the
left tap, and 0.136 sAUC to the right. PLACEMENT_MARGIN is about half of
each.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from atarisal import cli, models, saliency as S, tensor_ops as T, weights_io

ROOT = Path(__file__).resolve().parents[1]
FRAMES, OBSERVATIONS = 256, 16
MARGIN = {"nss": 0.2, "kl": 0.012, "sauc": 0.009}
MODEL_MARGIN = {"nss": 0.13, "kl": 0.011, "sauc": 0.006}
ATTENTION_GAIN = 4.0
TAP_SHIFTS = {"tap-3px-right": 3, "tap-3px-left": -3}
SPARSE_MARGIN = {"nss": 0.2, "kl": 0.15, "sauc": 0.011}
SPARSE_GAIN, SPARSE_THRESHOLD = 512.0, 0.1
SPARSE_TAP_SHIFTS = {"tap-1-column-right": 1, "tap-1-column-left": -1}
PLACEMENT_MARGIN = {"first-conv": {"nss": 0.3, "kl": 0.35, "sauc": 0.025},
                    "each-conv": {"nss": 0.55, "kl": 0.35, "sauc": 0.065}}
GATE_BIAS = -20.0  # each-conv's first gate: softplus(-20), about 2e-9, everywhere
CHANCE_NSS, CHANCE_SAUC = 0.2, 0.03


def make_recording(out: Path) -> None:
    spec = importlib.util.spec_from_file_location(
        "make_synthetic_recording", ROOT / "scripts" / "make_synthetic_recording.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.make_recording(out, FRAMES, seed=3, square=12, fixations_per_frame=3)


MISREGISTERED = {
    "shifted-2px": lambda maps, i: np.roll(maps[i], 2, axis=1),
    "shifted-8px": lambda maps, i: np.roll(maps[i], 8, axis=1),
    "previous-observation": lambda maps, i: maps[max(i - 1, 0)],
    "next-observation": lambda maps, i: maps[min(i + 1, OBSERVATIONS - 1)],
    "flipped": lambda maps, i: maps[i][::-1],
    "transposed": lambda maps, i: maps[i].T,
}


def summary_means(out: Path) -> dict[str, float]:
    rows = [line.split(",") for line in (out / "summary.csv").read_text().splitlines()[1:]]
    return {row[2]: float(row[3]) for row in rows}


def hand_set_dense_fls(tap_shift: int) -> models.Model:
    """dense-fls whose attention map is softplus(ATTENTION_GAIN * v), v the
    newest channel tap_shift px right of each pixel."""
    model = models.build_model(models.PRESETS["dense-fls"], 0)
    p = model.params
    for value in p.values():
        value.fill(0)
    p["block.conv1.weight"][0, 3, 3, 3 + tap_shift] = 1.0
    p["block.conv2.weight"][0, 0, 2, 2] = 1.0
    p["block.conv3.weight"][0, 0, 1, 1] = 1.0
    p["attn.conv1.weight"][0, 0, 1, 1] = 1.0
    p["attn.conv2.weight"][0, 0, 1, 1] = ATTENTION_GAIN
    return model


def hand_set_sparse_fls(tap_shift: int) -> models.Model:
    """sparse-fls whose attention map is softplus(SPARSE_GAIN (v -
    SPARSE_THRESHOLD)), v the newest channel's weighted mean over the 36x36
    receptive field of the cell tap_shift columns right of each cell."""
    model = models.build_model(models.PRESETS["sparse-fls"], 0)
    p = model.params
    for value in p.values():
        value.fill(0)
    p["block.conv1.weight"][0, 3] = 1 / 64
    p["block.conv2.weight"][0, 0] = 1 / 16
    p["block.conv3.weight"][0, 0] = 1 / 9
    p["attn.conv1.weight"][0, 0, 1, 1 + tap_shift] = 1.0
    p["attn.conv2.weight"][0, 0, 1, 1] = SPARSE_GAIN
    p["attn.conv2.bias"][0] = -SPARSE_GAIN * SPARSE_THRESHOLD
    return model


def hand_set_sparse_read_point(placement: str, tap_shift: int) -> models.Model:
    """sparse-fls at placement first-conv or each-conv whose first-conv or
    conv2 map is softplus(SPARSE_GAIN (v - SPARSE_THRESHOLD)), v the newest
    channel's weighted mean over the receptive field of the cell tap_shift
    columns right of each cell."""
    model = models.build_model(models.preset_config("sparse-fls", placement=placement), 0)
    p = model.params
    for value in p.values():
        value.fill(0)
    p["block.conv1.weight"][0, 3] = 1 / 64
    attn = "attn"
    if placement == "each-conv":
        # attn1's gate is one tiny constant that block.conv2 divides back out,
        # and attn3's map is softplus(-100): neither shows in the summed render
        p["attn1.conv2.bias"][0] = GATE_BIAS
        p["block.conv2.weight"][0, 0] = 1 / 16 / T.softplus(np.float32(GATE_BIAS))
        p["attn3.conv2.bias"][0] = -100.0
        attn = "attn2"
    p[f"{attn}.conv1.weight"][0, 0, 1, 1 + tap_shift] = 1.0
    p[f"{attn}.conv2.weight"][0, 0, 1, 1] = SPARSE_GAIN
    p[f"{attn}.conv2.bias"][0] = -SPARSE_GAIN * SPARSE_THRESHOLD
    return model


def eval_scores(recording: Path, root: Path, flags: list[str], models_by_name) -> dict:
    """Summary mean per metric of `eval --weights` with the model flags on
    each named model."""
    results = {}
    for name, model in models_by_name.items():
        weights = root / f"{name}.flsw"
        weights_io.save_model(str(weights), model)
        out = root / f"eval-{name}"
        assert cli.main(["eval", *flags, "--weights", str(weights),
                         "--recording", str(recording / "frames"),
                         str(recording / "fixations.csv"), "--out", str(out)]) == 0
        results[name] = summary_means(out)
    return results


@pytest.fixture(scope="module")
def recording(tmp_path_factory):
    rec = tmp_path_factory.mktemp("registration") / "rec"
    make_recording(rec)
    return rec


@pytest.fixture(scope="module")
def scores(recording, tmp_path_factory):
    """Summary mean per metric of each set of dumps, by name."""
    root = tmp_path_factory.mktemp("dumps")
    fixations = str(recording / "fixations.csv")
    assert cli.main(["preprocess", "--frames", str(recording / "frames"),
                     "--out", str(root / "proc")]) == 0
    newest = [np.load(root / "proc" / f"obs_{i:04d}.npy")[:, :, 3] for i in range(OBSERVATIONS)]
    results = {}
    for name, dump in {"registered": lambda maps, i: maps[i], **MISREGISTERED}.items():
        dumps = root / name
        list(S.write_dumps(dumps, (dump(newest, i) for i in range(OBSERVATIONS)), pgm=False))
        out = root / f"scored-{name}"
        assert cli.main(["metrics", "--saliency", str(dumps), "--fixations", fixations,
                         "--out", str(out)]) == 0
        results[name] = summary_means(out)
    return results


@pytest.fixture(scope="module")
def model_scores(recording, tmp_path_factory):
    """Summary mean per metric of eval on each hand-set dense model, by name."""
    return eval_scores(recording, tmp_path_factory.mktemp("models"), ["--preset", "dense-fls"],
                       {name: hand_set_dense_fls(shift)
                        for name, shift in {"centre-taps": 0, **TAP_SHIFTS}.items()})


@pytest.fixture(scope="module")
def sparse_model_scores(recording, tmp_path_factory):
    """Summary mean per metric of eval on each hand-set sparse model, by name."""
    return eval_scores(recording, tmp_path_factory.mktemp("sparse-models"),
                       ["--preset", "sparse-fls"],
                       {name: hand_set_sparse_fls(shift)
                        for name, shift in {"registered": 0, **SPARSE_TAP_SHIFTS}.items()})


@pytest.fixture(scope="module", params=sorted(PLACEMENT_MARGIN))
def placement_scores(request, recording, tmp_path_factory):
    """The placement, and the summary mean per metric of eval on each
    hand-set sparse model at that placement, by name."""
    placement = request.param
    flags = ["--preset", "sparse-fls", "--placement", placement]
    hand_set = {name: hand_set_sparse_read_point(placement, shift)
                for name, shift in {"registered": 0, **SPARSE_TAP_SHIFTS}.items()}
    return placement, eval_scores(recording, tmp_path_factory.mktemp(placement), flags, hand_set)


@pytest.mark.parametrize("name", sorted(MISREGISTERED))
def test_registered_map_beats_its_misregistered_copy(scores, name):
    registered, other = scores["registered"], scores[name]
    assert registered["nss"] > other["nss"] + MARGIN["nss"], (registered, other)
    assert registered["kl"] < other["kl"] - MARGIN["kl"], (registered, other)
    assert registered["sauc"] > other["sauc"] + MARGIN["sauc"], (registered, other)


@pytest.mark.parametrize("name", ["flipped", "transposed"])
def test_flipped_and_transposed_maps_sit_at_chance(scores, name):
    assert abs(scores[name]["nss"]) < CHANCE_NSS, scores[name]
    assert abs(scores[name]["sauc"] - 0.5) < CHANCE_SAUC, scores[name]


@pytest.mark.parametrize("name", sorted(TAP_SHIFTS))
def test_hand_set_model_beats_its_off_centre_copy(model_scores, name):
    centred, other = model_scores["centre-taps"], model_scores[name]
    assert centred["nss"] > other["nss"] + MODEL_MARGIN["nss"], (centred, other)
    assert centred["kl"] < other["kl"] - MODEL_MARGIN["kl"], (centred, other)
    assert centred["sauc"] > other["sauc"] + MODEL_MARGIN["sauc"], (centred, other)


@pytest.mark.parametrize("name", sorted(SPARSE_TAP_SHIFTS))
def test_hand_set_sparse_model_beats_its_shifted_copy(sparse_model_scores, name):
    registered, other = sparse_model_scores["registered"], sparse_model_scores[name]
    assert registered["nss"] > other["nss"] + SPARSE_MARGIN["nss"], (registered, other)
    assert registered["kl"] < other["kl"] - SPARSE_MARGIN["kl"], (registered, other)
    assert registered["sauc"] > other["sauc"] + SPARSE_MARGIN["sauc"], (registered, other)


@pytest.mark.parametrize("name", sorted(SPARSE_TAP_SHIFTS))
def test_hand_set_sparse_read_point_beats_its_shifted_copy(placement_scores, name):
    placement, scores = placement_scores
    registered, other, margin = scores["registered"], scores[name], PLACEMENT_MARGIN[placement]
    assert registered["nss"] > other["nss"] + margin["nss"], (placement, registered, other)
    assert registered["kl"] < other["kl"] - margin["kl"], (placement, registered, other)
    assert registered["sauc"] > other["sauc"] + margin["sauc"], (placement, registered, other)

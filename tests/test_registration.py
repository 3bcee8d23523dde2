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
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from atarisal import cli, saliency as S

ROOT = Path(__file__).resolve().parents[1]
FRAMES, OBSERVATIONS = 256, 16
MARGIN = {"nss": 0.2, "kl": 0.012, "sauc": 0.009}
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


@pytest.fixture(scope="module")
def scores(tmp_path_factory):
    """Summary mean per metric of each set of dumps, by name."""
    root = tmp_path_factory.mktemp("registration")
    make_recording(root / "rec")
    fixations = str(root / "rec" / "fixations.csv")
    assert cli.main(["preprocess", "--frames", str(root / "rec" / "frames"),
                     "--out", str(root / "proc")]) == 0
    newest = [np.load(root / "proc" / f"obs_{i:04d}.npy")[:, :, 3] for i in range(OBSERVATIONS)]
    results = {}
    for name, dump in {"registered": lambda maps, i: maps[i], **MISREGISTERED}.items():
        dumps = root / name
        dumps.mkdir()
        for i in range(OBSERVATIONS):
            S.save_raw_saliency(str(dumps / f"sal_{i:04d}.raw"), dump(newest, i))
        out = root / f"scored-{name}"
        assert cli.main(["metrics", "--saliency", str(dumps), "--fixations", fixations,
                         "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "summary.csv").read_text().splitlines()[1:]]
        results[name] = {row[2]: float(row[3]) for row in rows}
    return results


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

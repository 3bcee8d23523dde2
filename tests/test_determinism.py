"""Output bytes: pinned eval digests, and conv2d and eval bytes that depend on
neither the BLAS threads nor the rows of each GEMM block, and a streamed
attention module's bytes; and the memory a dense forward's blocks hold.

The digests were recorded with the per-tap conv loop that im2col replaced
(numpy 2.4, OpenBLAS 0.3.31, x86-64), and the decode and upscale digests
with the whole-frame grayscale and a resize that built its tables on every
call. A changed digest means some output bit moved; changing the bits on
purpose needs its own argument, not a new digest.
"""

import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from atarisal import cli, models, preprocessing as P, saliency as S, tensor_ops as T

from conftest import fake_blas, write_recording

SRC = str(Path(__file__).resolve().parents[1] / "src")

GOLDEN = {
    ("--preset", "sparse-fls"): {
        "frames_rec0.csv": "cce9362fdf445fbf8f77038678ae5213793de98c0b749458ddf8cac1fccf5455",
        "summary.csv": "ef2fec592edcb59d98fecef30d0eed8e4b72d6d08cf108e1fa9233381fff0fce",
    },
    ("--preset", "dense-fls"): {
        "frames_rec0.csv": "145ba77557d45d593134a7fb73f28492f46e4cae502abcb0665d20e749d7292d",
        "summary.csv": "ab5f5705677f340b2851d8a202f9f591461338bc6bb8a6585ae22116e3835f58",
    },
    ("--preset", "sparse-fls", "--placement", "each-conv"): {
        "frames_rec0.csv": "bcd690e6b4add0317c1159685a3c7c0ae252d31412cffcad8220a51da411c7b0",
        "summary.csv": "38d51c45dbaff9301d84b3a3f425c60d6a984bc54e290cdf030ab99bd17aacda",
    },
    # recorded when Model.forward, not build_plan, dropped the activation
    # feeding each attention module
    ("--preset", "sparse-fls", "--softplus2", "--no-final-relu"): {
        "frames_rec0.csv": "8de906f626cbe7e64a3ba1b0777a135006b5b36c3ea06847cc34f96f6649b892",
        "summary.csv": "e2c6528eb18375ea6ed466a0666734cc2547d1662c985cb210cd92bc5e006733",
    },
    ("--preset", "sparse-fls", "--placement", "each-conv", "--no-final-relu"): {
        "frames_rec0.csv": "b82e3e0effe659f99678577a5e00de7b9dfe129e73f50f63ced06ffee42226ed",
        "summary.csv": "40570eb30232aa99771d9e5677384dc5695cca81461fe21731fb2b0ae8e31376",
    },
    # the forward now stops at block.conv1, the only layer this placement reads
    ("--preset", "sparse-fls", "--placement", "first-conv"): {
        "frames_rec0.csv": "3f68207e13530aeed7381437e12f3dba357713d66b23cda5e02fea2fb441d93b",
        "summary.csv": "659bb9fd37e9b3204b4ae25d9847a97a91dfc1af0bf600b3a94124fe727a3e07",
    },
    # its 84x84x512 elu map is now streamed through a line buffer; sum-pool
    # keeps the fc, which no forward reads, at 64 inputs, not 451,584
    ("--block", "dense", "--attention", "rs", "--readout", "sum-pool"): {
        "frames_rec0.csv": "9f017b546bda8ee599d3e3e155512801f4576951eaf0762d2ba1e7a27a94088b",
        "summary.csv": "55aec2adde327c634043523eaea123460e9bb881f16862306d2200b04d70a4c6",
    },
    ("--preset", "rs-ppo"): {
        "frames_rec0.csv": "057cfe171132112da54b9b45178a0d9a86b563a4416024c6259fff064045bfa2",
        "summary.csv": "2e35d552d65163e8c6564f1dde5c1b3436ab9cd2e51f96a1e9a7286e0f9aa9de",
    },
    ("--preset", "daqn"): {
        "frames_rec0.csv": "0a5720831146da740cea3c4e88a82961f398c6f1d1d789378eaac57931e05e73",
        "summary.csv": "fc7c428010ab487cccf718af52c65fe663b3eb76c0f832831bef5a163773f6fe",
    },
    ("--preset", "mousavi"): {
        "frames_rec0.csv": "b2f77fd7962b090063c4807779925521daf8801bf5b77de0862334fb5a679851",
        "summary.csv": "0a8d2c555d407c2709a4868b07f972e5ad557c9004cccb3606409f291845503a",
    },
}

CSVS = ("frames_rec0.csv", "summary.csv")


def digests(out):
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in CSVS}


def run_id(argv):
    """A flag's value, or a switch's name: "--preset sparse-fls --softplus2"
    is sparse-fls-softplus2."""
    return "-".join(word.removeprefix("--") for word, after in zip(argv, [*argv[1:], "--"])
                    if not word.startswith("--") or after.startswith("--"))


@pytest.mark.parametrize("argv", list(GOLDEN), ids=run_id)
def test_eval_csv_bytes_are_pinned(tmp_path, capsys, recording_32, argv):
    frames_dir, csv_path = recording_32  # the same recording as write_recording(.., 32, seed=11)
    out = tmp_path / "run"
    assert cli.main(["eval", *argv, "--recording", str(frames_dir), str(csv_path),
                     "--out", str(out)]) == 0
    capsys.readouterr()
    assert digests(out) == GOLDEN[argv]


def sha256(arrays):
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


def test_observation_bytes_are_pinned(recording_32):
    frames_dir, _ = recording_32
    obs = P.build_observations(P.load_frames(str(frames_dir)))
    assert [(o.shape, o.dtype) for o in obs] == [((84, 84, 4), np.float32)] * 2
    assert sha256(obs) == "f194ee20acb250eb291f83a66e1459bff22bd1c58a55bf22c5540c11cc38c6a2"


def test_upscale_bytes_are_pinned():
    up = S.upscale_to_frame(np.random.default_rng(7).random((84, 84)).astype(np.float32))
    assert up.shape == (210, 160) and up.dtype == np.float32
    assert sha256([up]) == "3f2150d8cff2a3a0adee640a760edf7d307585c33ceffc5f127f2282f1f062b6"


def test_eval_csv_bytes_do_not_depend_on_blas_threads(tmp_path):
    frames_dir, csv_path = write_recording(tmp_path / "rec", 32, seed=11)
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "atarisal", "eval", "--preset", "dense-fls",
                               "--recording", str(frames_dir), str(csv_path), "--out", str(out)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append([(out / name).read_bytes() for name in CSVS])
    assert outputs[0] == outputs[1]


def test_two_recording_shared_pool_bytes_are_pinned(tmp_path, capsys):
    # pool scope "all" pools sAUC negatives over both recordings; the second
    # also has out-of-bounds records and records outside every observation
    fr1, fx1 = write_recording(tmp_path / "r1", 32, seed=21)
    fr2, fx2 = write_recording(tmp_path / "r2", 32, seed=22)
    with open(fx2, "a") as f:
        f.write("18,500,10\n19,10,300\n-1,5,5\n40,3,3\n")
    out = tmp_path / "run"
    assert cli.main(["eval", "--preset", "sparse-fls", "--recording", str(fr1), str(fx1),
                     "--recording", str(fr2), str(fx2), "--out", str(out),
                     "--pool-scope", "all"]) == 0
    capsys.readouterr()
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in
            ("frames_rec0.csv", "frames_rec1.csv", "summary.csv", "log.txt")} == {
        "frames_rec0.csv": "f77bccd56be5d6c55d99f53a3fe95f9122c74f447b5a5d77cea8d2ae78f2b28d",
        "frames_rec1.csv": "317ebcfaac25846b7535f53ed8a259a0b71aaf541f1d8f82642acb21f3258cf5",
        "summary.csv": "ecbb4d267af19195fba71c03e252051d77b685a7e767da299d56b2ece04ba743",
        "log.txt": "6513eedc80300c6dd4d76aca7d52a2e906d4c69e1df76c293b18fd32d4fab42b",
    }


def test_conv2d_bytes_do_not_depend_on_the_blas_threads():
    # the setter of the OpenBLAS in numpy's wheel, on a dense-size product
    functions = T._openblas_thread_functions()
    if functions is None:
        pytest.skip("numpy's BLAS exports no known thread setter")
    set_threads, get_threads = functions
    rng = np.random.default_rng(5)
    x = rng.random((42, 42, 16)).astype(np.float32)
    kern = T.ConvKernel(rng.uniform(-1, 1, (32, 16, 3, 3)).astype(np.float32),
                        rng.uniform(-1, 1, 32).astype(np.float32), padding=1)
    before = get_threads()
    outputs = []
    try:
        for threads in (1, 2):
            set_threads(threads)
            outputs.append(T.conv2d(x, kern).tobytes())
    finally:
        set_threads(before)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("config", [
    models.PRESETS["dense-fls"],
    models.preset_config("sparse-fls", placement="each-conv"),
    models.PRESETS["rs-ppo"],
    models.ModelConfig(block="dense", attention="rs", readout="sum-pool"),
], ids=["dense-fls", "sparse-fls-each-conv", "rs-ppo", "dense-rs"])
def test_conv_layer_bytes_do_not_depend_on_the_block_rows(monkeypatch, config):
    # each block's GEMM multiplies its own rows of the patch matrix, so a
    # block size may change only if no output bit depends on how many rows
    # a product has: from 4 MiB and the 1 MiB default down to one output row
    # per block (5,000 bytes holds less than two rows of every layer's patch
    # matrix) and up to one block per layer. An attention module's band
    # calls follow its block rows, so each layer's rows, joined in order,
    # are compared
    obs = np.random.default_rng(3).random((84, 84, 4)).astype(np.float32)
    model = models.build_model(config, 0)
    names = {id(kernel): name for name, kernel in model.kernels.items()}
    conv2d, row_bytes, layers = T.conv2d, [], {}

    def recorded(x, kernel, **kwargs):
        out = conv2d(x, kernel, **kwargs)
        row_bytes.append(out.shape[1] * kernel.gemm_weights.shape[0] * 8)
        layers.setdefault(names[id(kernel)], []).append(out.tobytes())
        return out

    monkeypatch.setattr(T, "conv2d", recorded)
    outputs = {}
    for block_bytes in (4 * 2**20, 2**20, 65536, 5000, 10**9):
        monkeypatch.setattr(T, "PATCH_BLOCK_BYTES", block_bytes)
        layers.clear()
        model.forward(obs)
        outputs[block_bytes] = {name: b"".join(rows) for name, rows in layers.items()}
    assert all(5000 < 2 * n for n in row_bytes)
    assert all(out == outputs[4 * 2**20] for out in outputs.values())


def whole_map_conv2d(x, kernel, activation):
    """conv2d as it was before each block padded its own rows: the whole
    input zero-padded into one map, the blocks run serially, and the
    activation applied to the whole float32 output."""
    h, w, c = x.shape
    cout, cin, kh, kw = kernel.weights.shape
    s, p = kernel.stride, kernel.padding
    ho = T.conv_output_size(h, kh, s, p)
    wo = T.conv_output_size(w, kw, s, p)
    xp = np.zeros((h + 2 * p, w + 2 * p, c), dtype=x.dtype)
    xp[p:p + h, p:p + w, :] = x
    patches = sliding_window_view(xp, (kh, kw), axis=(0, 1))[::s, ::s].transpose(0, 1, 3, 4, 2)
    depth = kh * kw * c
    rows = min(ho, max(1, T.PATCH_BLOCK_BYTES // (wo * depth * 8)))
    bias = None if kernel.bias is None else kernel.bias.astype(np.float64)
    out = np.empty((ho, wo, cout), dtype=x.dtype)
    out_rows = out.reshape(ho * wo, cout)
    patch, acc = np.empty((rows * wo, depth), np.float64), np.empty((rows * wo, cout), np.float64)
    for r in range(0, ho, rows):
        n = min(rows, ho - r)
        block, block_acc = patch[:n * wo], acc[:n * wo]
        np.copyto(block.reshape(n, wo, kh, kw, c), patches[r:r + n])
        np.matmul(block, kernel.gemm_weights, out=block_acc)
        if bias is not None:
            block_acc += bias
        out_rows[r * wo:(r + n) * wo] = block_acc
    return T.apply_activation(out, activation)


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("block_bytes", [5000, 65536, 2**20, 10**9])
@given(seed=st.integers(0, 2**32 - 1), activation=st.sampled_from(sorted(T.ACTIVATIONS)),
       h=st.integers(1, 24), w=st.integers(1, 24), c=st.integers(1, 8), cout=st.integers(1, 8),
       k=st.integers(1, 5), s=st.integers(1, 3), p=st.integers(0, 3), bias=st.booleans())
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_conv2d_bytes_equal_a_whole_map_pad_and_activation(monkeypatch, workers, block_bytes, seed,
                                                           activation, h, w, c, cout, k, s, p,
                                                           bias):
    # each block pads only the input rows it reads and applies the activation
    # to its own output rows; no byte may differ from padding the whole map
    # once and activating the whole output, whatever the stride, the padding
    # (inputs smaller than the kernel included), the block rows or the workers
    assume(h + 2 * p >= k and w + 2 * p >= k)
    monkeypatch.setattr(T, "PATCH_BLOCK_BYTES", block_bytes)
    fake_blas(monkeypatch, workers)
    rng = np.random.default_rng(seed)
    x = (rng.standard_normal((h, w, c)) * 20).astype(np.float32)  # past softplus's cutoff too
    kernel = T.ConvKernel(rng.standard_normal((cout, c, k, k)).astype(np.float32),
                          rng.standard_normal(cout).astype(np.float32) if bias else None, s, p)
    want = whole_map_conv2d(x, kernel, activation)
    with T.block_threads():
        got = T.conv2d(x, kernel, activation=activation)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def forward_peak_bound(plan, workers):
    """The most one forward of plan may hold at once, in bytes: at each conv,
    its float32 input and output, the block output an attention module reads
    beside its own input, and each worker's padded band, float64 patch block,
    float64 accumulator and activated float32 rows, in blocks whose patch
    and accumulator each fit the cap. Each attention layer counts as if its
    input and output were whole maps."""
    shapes = dict(plan.trace)

    def conv(lp, in_shape, out_shape, held):
        (h, w, c), (ho, wo, cout) = in_shape, out_shape
        k, s, p = lp.spec.kernel, lp.spec.stride, lp.spec.padding
        depth = k * k * c
        rows = min(ho, max(1, T.PATCH_BLOCK_BYTES // (wo * max(depth, cout) * 8)))
        worker = (((rows - 1) * s + k) * (w + 2 * p) * c * 4 + rows * wo * depth * 8
                  + rows * wo * cout * (8 + 4))
        return held + 4 * (h * w * c + ho * wo * cout) + workers * worker

    bounds, in_shape = [], shapes["input"]
    for lp in plan.block_layers:
        bounds.append(conv(lp, in_shape, shapes[lp.name], 0))
        in_shape = shapes[lp.name]
    for ap in plan.attentions:
        source = shapes[f"block.conv{ap.after_layer}"]
        in_shape, held = source, 0
        for lp in ap.layers:
            bounds.append(conv(lp, in_shape, shapes[lp.name], held))
            in_shape, held = shapes[lp.name], 4 * math.prod(source)
    return max(bounds)


def traced_forward_peak(monkeypatch, model, workers):
    obs = np.random.default_rng(3).random((84, 84, 4)).astype(np.float32)
    model.forward(obs)  # builds the kernels and their float64 weights
    fake_blas(monkeypatch, workers)
    with T.block_threads():
        tracemalloc.start()
        try:
            model.forward(obs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return peak


@pytest.mark.parametrize("workers", [1, 2])
def test_dense_forward_peak_memory_is_its_maps_and_blocks(monkeypatch, workers):
    # at 2 workers this bound is 12.1 MiB, and a whole-layer pad (7.6 MB at
    # attn.conv2) or a whole-map activation temporary (7.2 MB at attn.conv1)
    # breaks it by far more than the 1 MiB of interpreter slack
    model = models.build_model(models.PRESETS["dense-fls"], 0)
    peak = traced_forward_peak(monkeypatch, model, workers)
    assert peak <= forward_peak_bound(model.plan, workers) + 2**20


@pytest.mark.parametrize("workers", [1, 2])
def test_dense_fls_forward_never_holds_its_attention_map(monkeypatch, workers):
    # the attention module streams attn.conv1's rows through a line buffer,
    # so the peak stays under the whole-map bound less that conv's 7.2 MB
    # output, which the whole-map attention conv held (12.1 MiB against this
    # 6.2 MiB at 2 workers)
    model = models.build_model(models.PRESETS["dense-fls"], 0)
    peak = traced_forward_peak(monkeypatch, model, workers)
    assert peak <= forward_peak_bound(model.plan, workers) + 2**20 - 84 * 84 * 256 * 4


@pytest.mark.parametrize("workers", [1, 2])
def test_dense_rs_forward_peak_memory_is_its_maps_and_blocks(monkeypatch, workers):
    # rs widens 64 channels to 512 in a 1x1 conv: blocks sized by the patch
    # alone were 24 rows with a 7.9 MiB float64 accumulator per worker (51.9
    # MiB at 2 workers); sized by the accumulator too they are 3 rows
    config = models.ModelConfig(block="dense", attention="rs", readout="sum-pool")
    model = models.build_model(config, 0)
    peak = traced_forward_peak(monkeypatch, model, workers)
    assert peak <= forward_peak_bound(model.plan, workers) + 2**20


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("block_bytes", [5000, 65536, 2**20, 10**9])
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(models.ATTENTION_KINDS),
       side=st.integers(1, 24), c=st.integers(1, 8))
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_conv_chain_bytes_equal_its_layers_on_whole_maps(monkeypatch, workers, block_bytes, seed,
                                                         kind, side, c):
    # an attention module streamed through line buffers, in bands of any
    # height and on any number of workers, gives the bytes of conv2d run
    # layer by layer on whole maps, at the default cap and serially
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((side, side, c)).astype(np.float32)
    layers, in_c = [], c
    for spec in models.ATTENTION_LAYERS[kind][0]:
        shape = (spec.out_channels, in_c, spec.kernel, spec.kernel)
        layers.append((T.ConvKernel(rng.standard_normal(shape).astype(np.float32) / 8,
                                    rng.standard_normal(spec.out_channels).astype(np.float32),
                                    spec.stride, spec.padding), spec.activation))
        in_c = spec.out_channels
    want = x
    for kernel, activation in layers:
        want = T.conv2d(want, kernel, activation=activation)
    monkeypatch.setattr(T, "PATCH_BLOCK_BYTES", block_bytes)
    fake_blas(monkeypatch, workers)
    with T.block_threads():
        got = T.conv_chain(x, layers)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()

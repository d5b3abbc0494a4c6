"""Zoo synthesis, INR/CNN training, and the on-disk format."""

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from scalegmn import activations
from scalegmn.cnn import CnnParams
from scalegmn.ffnn import apply_orbit, ffnn_forward, sample_orbit
from scalegmn.tensor import NumericsError
from scalegmn.zoo import (
    Signal,
    ZooEntry,
    dilate3x3,
    gen_cnn_zoo,
    gen_inr_zoo,
    grid_coords,
    image_signal,
    inr_source_image,
    load_zoo,
    make_shape_image,
    save_zoo,
    siren_init,
    train_inr,
    train_toy_cnn,
    worker_count,
)


def test_grid_coords_range():
    g = grid_coords(16)
    assert g.shape == (256, 2)
    assert g.min() == -1.0 and g.max() == 1.0


def test_signal_requires_matching_lengths():
    with pytest.raises(ValueError):
        Signal(np.zeros((4, 2)), np.zeros((3, 1)))


def test_shape_images_binary_and_seeded():
    rng = np.random.default_rng(0)
    img = make_shape_image("disk", rng)
    assert set(np.unique(img)) <= {0.0, 1.0}
    img2 = make_shape_image("disk", np.random.default_rng(0))
    assert np.array_equal(img, img2)
    sq = make_shape_image("square", np.random.default_rng(1))
    assert sq.sum() > 0


def test_dilate3x3_grows_shapes():
    img = np.zeros((8, 8))
    img[4, 4] = 1.0
    out = dilate3x3(img)
    assert out[3:6, 3:6].sum() == 9.0
    assert out.sum() == 9.0


# -- INR fitting ------------------------------------------------------------------------

def test_train_inr_constant_signal():
    side = 8
    sig = Signal(grid_coords(side), np.full((side * side, 1), 0.5))
    (fit,) = train_inr([sig], dims=(2, 8, 8, 1), steps=500,
                       rng=np.random.default_rng(0), mse_threshold=1e-4)
    assert fit.error is None
    assert fit.mse < 1e-4


def test_train_inr_disk_image():
    img, _ = inr_source_image(3, 0)
    (fit,) = train_inr([image_signal(img)], dims=(2, 12, 12, 1), steps=3000,
                       rng=np.random.default_rng(1), mse_threshold=0.0)
    assert fit.mse < 5e-3
    # the INR really encodes the image
    recon = ffnn_forward(fit.net, grid_coords(16)).reshape(16, 16)
    assert np.mean((recon - img) ** 2) < 5e-3


def test_train_inr_zero_steps_returns_initialization():
    sig = Signal(grid_coords(4), np.zeros((16, 1)))
    (fit,) = train_inr([sig], dims=(2, 6, 1), steps=0, rng=np.random.default_rng(7))
    init = siren_init((2, 6, 1), 30.0, np.random.default_rng(7))
    for a, b in zip(fit.net.weights, init.weights):
        assert np.array_equal(a, b)


def test_train_inr_divergence_reports_step():
    sig = Signal(grid_coords(4), np.full((16, 1), 1e200))
    (fit,) = train_inr([sig], dims=(2, 4, 1), steps=5, rng=np.random.default_rng(2))
    assert isinstance(fit.error, NumericsError)
    assert re.search("step 0", str(fit.error))


def _assert_same_params(a, b):
    assert a.dims == b.dims
    for x, y in zip(a.weights + a.biases, b.weights + b.biases):
        assert x.shape == y.shape and np.array_equal(x, y)


def _inr_stack_signals():
    """Three zoo signals around a constant one that stops early at 2e-3."""
    signals = [image_signal(inr_source_image(5, i)[0]) for i in range(3)]
    signals.insert(1, Signal(grid_coords(16), np.full((256, 1), 0.5)))
    return signals


def _fit_inrs(signals, steps=150, mse_threshold=2e-3):
    return train_inr(signals, dims=(2, 12, 12, 1), steps=steps, omega0=10.0,
                     rng=np.random.default_rng([5, 777]), mse_threshold=mse_threshold)


def test_stacked_train_inr_rows_are_bitwise_the_lone_fits():
    signals = _inr_stack_signals()
    stacked = _fit_inrs(signals)
    assert [fit.steps == 150 for fit in stacked] == [True, False, True, True]
    for sig, fit in zip(signals, stacked):
        (alone,) = _fit_inrs([sig])
        assert fit.error is None and alone.error is None
        assert fit.mse == alone.mse and fit.steps == alone.steps
        _assert_same_params(fit.net, alone.net)
    # the early stop keeps the update of the first step whose MSE (taken
    # before that update) is below the threshold, and reports that MSE
    early = stacked[1]
    (through,) = _fit_inrs(signals[1:2], steps=early.steps, mse_threshold=0.0)
    (before,) = _fit_inrs(signals[1:2], steps=early.steps - 1, mse_threshold=0.0)
    assert before.mse >= 2e-3 > early.mse == through.mse
    _assert_same_params(early.net, through.net)


def test_a_diverging_inr_leaves_the_other_rows_unchanged():
    signals = _inr_stack_signals()
    signals.insert(2, Signal(grid_coords(16), np.full((256, 1), 1e200)))
    with np.errstate(over="ignore"):
        fits = _fit_inrs(signals)
    assert isinstance(fits[2].error, NumericsError)
    assert re.search("step 0", str(fits[2].error))
    for fit, clean in zip(fits[:2] + fits[3:], _fit_inrs(_inr_stack_signals())):
        assert fit.error is None and fit.mse == clean.mse
        _assert_same_params(fit.net, clean.net)


# -- toy CNNs ---------------------------------------------------------------------------

CNN_STACK = dict(seeds=[3, 4, 5], lr=[1e-3, 3e-2, 5e-3], steps=[7, 40, 23],
                 init_scale=[0.5, 1.0, 2.0])


def _assert_same_cnn(a, b):
    assert a.accuracy == b.accuracy and a.diverged == b.diverged
    _assert_same_params(a.net, b.net)


def test_stacked_train_toy_cnn_rows_are_bitwise_the_lone_fits():
    stacked = train_toy_cnn(**CNN_STACK)
    for i, res in enumerate(stacked):
        (alone,) = train_toy_cnn(**{k: [v[i]] for k, v in CNN_STACK.items()})
        assert not res.diverged
        _assert_same_cnn(res, alone)


def test_a_diverging_toy_cnn_leaves_the_other_rows_unchanged():
    # an lr of 1e300 throws the weights near the float64 limit in one step;
    # the next forward overflows
    wild = dict(CNN_STACK, lr=[1e-3, 1e300, 5e-3])
    with np.errstate(over="ignore", invalid="ignore"):
        results = train_toy_cnn(**wild)
        (alone,) = train_toy_cnn(**{k: [v[1]] for k, v in wild.items()})
    assert results[1].diverged and results[1].accuracy == 0.5
    _assert_same_cnn(results[1], alone)
    assert np.all(np.isfinite(results[1].net.flatten()))
    clean = train_toy_cnn(**CNN_STACK)
    for i in (0, 2):
        _assert_same_cnn(results[i], clean[i])


def test_toy_cnn_zero_steps_is_chance():
    # single untrained nets can be biased on 200 test samples; the chance
    # band is empirical over seeds
    accs = [res.accuracy for res in train_toy_cnn(range(1, 9), steps=0)]
    assert abs(np.mean(accs) - 0.5) <= 0.15, accs


def test_toy_cnn_full_budget_learns():
    (res,) = train_toy_cnn([5], lr=3e-3, steps=300)
    assert not res.diverged
    assert res.accuracy > 0.8


def test_toy_cnn_deterministic():
    (a,) = train_toy_cnn([9], steps=30)
    (b,) = train_toy_cnn([9], steps=30)
    assert a.accuracy == b.accuracy
    for k1, k2 in zip(a.net.weights[:-1], b.net.weights[:-1]):
        assert np.array_equal(k1, k2)


# -- zoo serialization --------------------------------------------------------------------

def test_inr_zoo_roundtrip_and_balance(tmp_path):
    zoo = tmp_path / "zoo"
    entries = gen_inr_zoo(zoo, count=4, seed=5, steps=60)
    assert len(entries) == 4
    labels = [e.label for e in entries]
    assert abs(labels.count(0.0) - labels.count(1.0)) <= 1
    manifest = json.loads((zoo / "manifest.json").read_text())
    row = manifest["entries"][0]
    for key in ("id", "kind", "layer_dims", "activations", "omega0", "label", "weights_path"):
        assert key in row
    loaded, nets, meta = load_zoo(zoo)
    assert meta["kind"] == "inr-2class"
    assert nets[0].dims == row["layer_dims"]
    # float32 round trip: saving again produces identical bytes
    from scalegmn.zoo import save_zoo

    save_zoo(tmp_path / "zoo2", loaded, nets, meta)
    for e in loaded:
        a = (zoo / e.weights_path).read_bytes()
        b = (tmp_path / "zoo2" / e.weights_path).read_bytes()
        assert a == b


def test_inr_zoo_deterministic(tmp_path):
    gen_inr_zoo(tmp_path / "a", count=3, seed=9, steps=40)
    gen_inr_zoo(tmp_path / "b", count=3, seed=9, steps=40)
    ma = (tmp_path / "a" / "manifest.json").read_text()
    mb = (tmp_path / "b" / "manifest.json").read_text()
    assert ma == mb
    for name in json.loads(ma)["entries"]:
        assert (tmp_path / "a" / name["weights_path"]).read_bytes() == (
            tmp_path / "b" / name["weights_path"]
        ).read_bytes()


def test_empty_zoo(tmp_path):
    entries = gen_inr_zoo(tmp_path / "z", count=0, seed=1)
    assert entries == []
    manifest = json.loads((tmp_path / "z" / "manifest.json").read_text())
    assert manifest["entries"] == []


def _zoo_digest(directory) -> str:
    """sha256 over every file of a zoo directory, by name, names and bytes."""
    h = hashlib.sha256()
    for path in sorted(Path(directory).iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def test_parallel_generation_is_deterministic(tmp_path, monkeypatch):
    """SCALEGMN_THREADS sets how many stacked chunks a zoo is fitted in
    without changing a byte; 3 splits 4 nets unevenly."""
    for workers in ("1", "2", "3"):
        monkeypatch.setenv("SCALEGMN_THREADS", workers)
        gen_inr_zoo(tmp_path / f"inr-{workers}", count=4, seed=17, steps=40)
        gen_cnn_zoo(tmp_path / f"cnn-{workers}", count=4, seed=17)
    for kind in ("inr", "cnn"):
        seq = tmp_path / f"{kind}-1"
        names = sorted(p.name for p in seq.iterdir())
        for workers in ("2", "3"):
            par = tmp_path / f"{kind}-{workers}"
            assert sorted(p.name for p in par.iterdir()) == names
            for name in names:
                assert (seq / name).read_bytes() == (par / name).read_bytes(), (workers, name)


# sha256 (`_zoo_digest`) of small generated zoos: every fitted weight, label
# and manifest byte is pinned (numpy 2.4 with OpenBLAS). "inr" and "cnn" were
# taken from the per-network fits that the stacked fits replaced; "cnn-bench",
# the benchmark's train CNN zoo, from the einsum convolution that labelled
# toy CNNs before `cnn_forward` became the taped forward.
GOLDEN_ZOO_SHA256 = {
    "inr": "2f0062f9d3bc2ed56890c3e07bf5ab634b65c153f9b0846f8e476b79a72b7d8c",
    "cnn": "f187bdcf48614af82111085ea5bcce6646ab35e29f02e70ff00dc05ea4ce88cc",
    "cnn-bench": "16b6b2a228c759139afe3aa9b8204f9a8caa1480bcd4dba2093f75656e9332a5",
}


@pytest.mark.parametrize("kind", ["inr", "cnn", "cnn-bench"])
def test_generated_zoo_bytes_are_pinned(tmp_path, kind):
    if kind == "inr":
        gen_inr_zoo(tmp_path / kind, count=4, seed=5, steps=60)
    elif kind == "cnn":
        gen_cnn_zoo(tmp_path / kind, count=3, seed=2)
    else:
        gen_cnn_zoo(tmp_path / kind, count=6, seed=0)
    assert _zoo_digest(tmp_path / kind) == GOLDEN_ZOO_SHA256[kind]


@pytest.mark.parametrize("value", ["0", "-2", "two", "1.5", ""])
def test_worker_count_rejects_a_malformed_setting(monkeypatch, value):
    monkeypatch.setenv("SCALEGMN_THREADS", value)
    with pytest.raises(ValueError, match=rf"SCALEGMN_THREADS .*{re.escape(repr(value))}"):
        worker_count()


def test_worker_count_reads_a_positive_integer(monkeypatch):
    monkeypatch.delenv("SCALEGMN_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("SCALEGMN_THREADS", "3")
    assert worker_count() == 3


def test_cnn_zoo_entries(tmp_path):
    entries = gen_cnn_zoo(tmp_path / "c", count=3, seed=2)
    assert len(entries) == 3
    for e in entries:
        assert e.kind == "cnn"
        assert 0.0 <= e.label <= 1.0
        assert e.extra["kernel_hw"] == [3, 3]
    _, nets, _ = load_zoo(tmp_path / "c")
    assert nets[0].weights[0].shape == (4, 1, 3, 3)
    assert nets[0].weights[-1].shape == (2, 4)


def _one_entry_zoo(directory, kind):
    """A saved one-network zoo: a 2-3-1 FFNN (13 floats) or a 1-2 channel
    3x3 CNN with a 2-way head (20 + 6 floats)."""
    rng = np.random.default_rng(0)
    if kind == "ffnn":
        net = siren_init((2, 3, 1), 10.0, rng)
        entry = ZooEntry("inr-0", "ffnn", [2, 3, 1], ["sine", "identity"], 10.0, 0.0,
                         "inr-0.bin")
    else:
        kernel, bias = rng.standard_normal((2, 1, 3, 3)), rng.standard_normal(2)
        net = CnnParams([kernel, rng.standard_normal((2, 2))], [bias, rng.standard_normal(2)],
                        [activations.relu()])
        entry = ZooEntry("cnn-0", "cnn", [1, 2, 2], ["relu"], 0.0, 0.5, "cnn-0.bin",
                         {"kernel_hw": [3, 3]})
    save_zoo(directory, [entry], [net])
    return directory / entry.weights_path, net


# sha256 of the files `_one_entry_zoo` writes: the on-disk format of the zoo
# module docstring, pinned byte for byte, so a serializer change cannot move it.
GOLDEN_SHA256 = {
    "ffnn": {"inr-0.bin": "91e282cf8403d54c4da60236eea811256bb219d016a9437fbabb1181b6501427",
             "manifest.json": "565297f83c570deaffa879203911f26dfc395e8b5abe08a9c47e00ec1532f7a5"},
    "cnn": {"cnn-0.bin": "7bc3d69e4da67c736e899899eabf99401d620b233482ae599fa10640adc09906",
            "manifest.json": "8d2dd56fbbb7643d10f3177ef1afee0f3d598be19251114544e49e51fa015d2e"},
}


@pytest.mark.parametrize("kind", ["ffnn", "cnn"])
def test_copy_orbit_and_load_keep_the_network_class(tmp_path, kind):
    _, net = _one_entry_zoo(tmp_path / "zoo", kind)
    group = "sign" if kind == "ffnn" else "positive"  # sine SIREN / ReLU CNN
    moved = apply_orbit(net, sample_orbit(group, net.dims[1:-1], np.random.default_rng(1)))
    _, (loaded,), _ = load_zoo(tmp_path / "zoo")
    for out in (net.copy(), moved, loaded):
        assert type(out) is type(net)
        assert [w.shape for w in out.weights] == [w.shape for w in net.weights]


@pytest.mark.parametrize("kind", ["ffnn", "cnn"])
def test_zoo_byte_format_is_pinned(tmp_path, kind):
    _, net = _one_entry_zoo(tmp_path / "zoo", kind)
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in (tmp_path / "zoo").iterdir()}
    assert digests == GOLDEN_SHA256[kind]
    _, (loaded,), _ = load_zoo(tmp_path / "zoo")
    assert type(loaded) is type(net)
    for a, b in zip(loaded.weights + loaded.biases, net.weights + net.biases):
        assert a.dtype == np.float64 and a.shape == b.shape
        assert np.array_equal(a, b.astype(np.float32).astype(np.float64))


@pytest.mark.parametrize("kind", ["ffnn", "cnn"])
@pytest.mark.parametrize("delta", [-1, 1])
def test_load_zoo_rejects_wrong_size_file(tmp_path, kind, delta):
    path, net = _one_entry_zoo(tmp_path / "zoo", kind)
    n = net.flatten().size
    vec = np.fromfile(path, dtype="<f4")
    (vec[:-1] if delta < 0 else np.concatenate([vec, vec[:1]])).tofile(path)
    with pytest.raises(ValueError, match=rf"{path.name}: expected {n} .* found {n + delta}$"):
        load_zoo(tmp_path / "zoo")


def test_load_zoo_rejects_file_of_other_architecture(tmp_path):
    path, net = _one_entry_zoo(tmp_path / "zoo", "ffnn")
    n = net.flatten().size
    manifest_path = tmp_path / "zoo" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["entries"][0]["layer_dims"] = [2, 4, 1]
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=rf"{path.name}: expected 17 .* found {n}$"):
        load_zoo(tmp_path / "zoo")


def test_load_zoo_names_cnn_entry_without_kernel_hw(tmp_path):
    _one_entry_zoo(tmp_path / "zoo", "cnn")
    manifest_path = tmp_path / "zoo" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["entries"][0]["kernel_hw"]
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=r"manifest\.json: entry 'cnn-0' lacks the field "
                                         r"'kernel_hw'"):
        load_zoo(tmp_path / "zoo")


def test_load_zoo_names_a_truncated_manifest(tmp_path):
    _one_entry_zoo(tmp_path / "zoo", "ffnn")
    manifest_path = tmp_path / "zoo" / "manifest.json"
    manifest_path.write_text(manifest_path.read_text()[:40])
    with pytest.raises(ValueError, match="^" + re.escape(f"{manifest_path}: not a JSON file")):
        load_zoo(tmp_path / "zoo")


def test_load_zoo_names_a_manifest_without_entries(tmp_path):
    _one_entry_zoo(tmp_path / "zoo", "ffnn")
    manifest_path = tmp_path / "zoo" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["entries"]
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="^" + re.escape(
            f"{manifest_path} lacks the field 'entries'") + "$"):
        load_zoo(tmp_path / "zoo")


ENTRY_ID = {"ffnn": "inr-0", "cnn": "cnn-0"}  # the entry `_one_entry_zoo` writes


def _edit_manifest(directory, edit):
    manifest_path = directory / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    edit(manifest["entries"][0])
    manifest_path.write_text(json.dumps(manifest))
    return manifest_path


@pytest.mark.parametrize("kind", ["ffnn", "cnn"])
def test_load_zoo_names_an_entry_without_layer_dims(tmp_path, kind):
    _one_entry_zoo(tmp_path / "zoo", kind)
    manifest_path = _edit_manifest(tmp_path / "zoo", lambda row: row.pop("layer_dims"))
    with pytest.raises(ValueError, match=re.escape(
            f"{manifest_path}: entry {ENTRY_ID[kind]!r} lacks the field 'layer_dims'")):
        load_zoo(tmp_path / "zoo")


@pytest.mark.parametrize("kind,activations,layers", [
    ("ffnn", ["sine", "sine", "identity"], 2),   # 2-3-1: two layers
    ("cnn", ["relu", "relu"], 1),                # one conv layer, then the head
])
def test_load_zoo_names_an_entry_whose_activations_do_not_fit_its_layers(
        tmp_path, kind, activations, layers):
    _one_entry_zoo(tmp_path / "zoo", kind)
    manifest_path = _edit_manifest(tmp_path / "zoo",
                                   lambda row: row.update(activations=activations))
    with pytest.raises(ValueError, match=re.escape(
            f"{manifest_path}: entry {ENTRY_ID[kind]!r}: field 'activations' lists "
            f"{len(activations)} activation(s)") + rf".* take {layers}$"):
        load_zoo(tmp_path / "zoo")

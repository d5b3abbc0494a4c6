"""Shared fixtures: tiny zoos reused across the train/cli test modules, and a
guard that no test leaves the tape engine in values-only mode."""

import pytest

from scalegmn import tensor
from scalegmn.zoo import gen_cnn_zoo, gen_inr_zoo


@pytest.fixture(autouse=True)
def tape_recording_on():
    """Each test starts and ends with ops recording: a `no_tape` state that
    leaks out of a test fails that test and is reset, so no later one runs
    without a tape."""
    assert tensor.recording(), "a test started inside no_tape()"
    yield
    leaked = not tensor.recording()
    tensor._MODE.record = True
    assert not leaked, "the test left no_tape() entered"


@pytest.fixture(scope="session")
def tiny_inr_zoo(tmp_path_factory):
    path = tmp_path_factory.mktemp("zoos") / "inr"
    gen_inr_zoo(path, count=10, seed=101, steps=300)
    return path


@pytest.fixture(scope="session")
def tiny_cnn_zoo(tmp_path_factory):
    path = tmp_path_factory.mktemp("zoos") / "cnn"
    gen_cnn_zoo(path, count=14, seed=102)
    return path

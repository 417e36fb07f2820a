"""The benchmark's hooks into samaseg. `perfbench/tracing.py` wraps
samaseg attributes by name and feeds its layer probes inputs at 4x the
length or pixels; a rename or a layout change in `samaseg` would break
only the traced benchmark run (`--trace 1`). These checks import the
tracer from its file, without writing bytecode next to it, and only read
it."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from samaseg.attention import AttnConfig, DiffAggAttention
from samaseg.ssm import SelectiveSsm
from samaseg.tensor import Tensor

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.modules[spec.name] = module          # dataclasses look the module up
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[spec.name]
    return module


def test_every_target_resolves_and_is_restored(tracing):
    originals = []
    for owner, attr, _ in tracing.TARGETS:
        assert attr in vars(owner), f"{owner.__name__}.{attr}"
        assert callable(vars(owner)[attr]), f"{owner.__name__}.{attr}"
        originals.append(vars(owner)[attr])
    with tracing.Tracer().installed():
        pass
    for (owner, attr, _), original in zip(tracing.TARGETS, originals, strict=True):
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr}"


def test_scaled_scan_tokens_run_through_the_scan(tracing):
    rng = np.random.default_rng(0)
    ssm = SelectiveSsm(4, 3, rng)
    x = rng.uniform(-1, 1, size=(2, 6, 4)).astype(np.float32)      # [V*B, L, C]
    big = tracing.scale_up("ssm.fwd", x)
    assert big.shape == (2, 24, 4)
    assert ssm(Tensor(big)).shape == big.shape
    tracing.probe(ssm, big, reps=1)


@pytest.mark.parametrize("kind", ["local", "global"])
def test_scaled_maps_run_through_attention(tracing, kind):
    rng = np.random.default_rng(0)
    attn = DiffAggAttention(AttnConfig(channels=8, heads=2, global_pool=3), kind, rng)
    x = rng.uniform(-1, 1, size=(1, 8, 5, 6)).astype(np.float32)   # [B, C, H, W]
    big = tracing.scale_up(f"attention.{kind}.fwd", x)
    assert big.shape == (1, 8, 10, 12)
    assert attn(Tensor(big)).shape == big.shape
    tracing.probe(attn, big, reps=1, backward=False)

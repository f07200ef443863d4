"""Randomness: every draw comes from sim.trial_rng(seed, index), and the
ledger's sampling sites never share a (seed, index) stream and never
overrun one."""

import pathlib

import numpy as np
import pytest

from qsurg import cli, sim

SRC = pathlib.Path(cli.__file__).parent


def test_no_default_rng_in_src():
    users = [p.name for p in sorted(SRC.glob("*.py"))
             if "default_rng" in p.read_text(encoding="utf-8")]
    assert users == []


def test_ledger_streams_are_disjoint(monkeypatch):
    real, real_check = sim.trial_rng, sim._check_stream
    pairs, checked = [], []

    def recorded(seed, trial=0):
        pairs.append((seed, trial))
        return real(seed, trial)

    def recorded_check(rng, index):
        checked.append(index)
        return real_check(rng, index)

    monkeypatch.setattr(sim, "trial_rng", recorded)
    monkeypatch.setattr(sim, "_check_stream", recorded_check)
    # On one CPU the ledger runs every section in this process, where the
    # recorders see them; tests/test_cli.py::TestLedgerFork shows the forked
    # path gives the same rows and files.
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    # The desk's trials: at a few thousand, the sim.trend row passes or
    # fails by the luck of the stream.
    rows = cli.run_desk_ledger(seed=3, out_dir=None, max_weight=1,
                               samples=20, frames=10)
    assert all(good for _, good, _ in rows)
    assert len(pairs) == len(set(pairs))
    # Every stream is checked against overrunning into the next one.
    assert sorted(checked) == sorted(trial for _, trial in pairs)
    # Every sampling site drew at least once.
    sites = {trial >> 32 for _, trial in pairs}
    assert sites == set(range(len(cli._SITES)))


def philox_advanced(seed, trial):
    """The reference stream: Philox keyed through its own key argument
    (which builds a SeedSequence), then advanced to the stream's counter."""
    bg = np.random.Philox(key=seed)
    bg.advance(trial * sim._TRIAL_STRIDE)
    return np.random.Generator(bg)


@pytest.mark.parametrize("seed", [0, 42, (1 << 63) - 1])
@pytest.mark.parametrize("trial", [0, 5, 7 * (1 << 32) + 5])
def test_trial_rng_matches_advanced_philox(seed, trial):
    got, want = sim.trial_rng(seed, trial), philox_advanced(seed, trial)
    state, ref = got.bit_generator.state, want.bit_generator.state
    for key in ("counter", "key"):
        assert np.array_equal(state["state"][key], ref["state"][key])
    assert np.array_equal(got.integers(0, 1 << 62, 300),
                          want.integers(0, 1 << 62, 300))
    assert np.array_equal(got.random(50), want.random(50))
    assert sim._stream_position(got) == sim._stream_position(want)


@pytest.mark.parametrize("seed,error", [(-1, ValueError),
                                        (1 << 128, ValueError),
                                        (1.5, TypeError)])
def test_trial_rng_rejects_bad_seed(seed, error):
    with pytest.raises(error):
        sim.trial_rng(seed, 0)

"""Randomness: every draw comes from sim.trial_rng(seed, index), and the
ledger's sampling sites never share a (seed, index) stream and never
overrun one."""

import pathlib

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
    rows = cli.run_desk_ledger(seed=3, out_dir=None, max_weight=1,
                               samples=20, trials=3000, frames=10)
    assert all(good for _, good, _ in rows)
    assert len(pairs) == len(set(pairs))
    # Every stream is checked against overrunning into the next one.
    assert sorted(checked) == sorted(trial for _, trial in pairs)
    # Every sampling site drew at least once.
    sites = {trial >> 32 for _, trial in pairs}
    assert sites == set(range(len(cli._SITES)))

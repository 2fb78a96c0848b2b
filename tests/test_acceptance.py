"""Acceptance gate: every release criterion, one test each, with a status line."""

import pytest

from cvqec import acceptance, cli, code
from cvqec.acceptance import CRITERIA


@pytest.mark.parametrize("name,criterion", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_criterion(name, criterion, capsys):
    try:
        detail = criterion()
    except AssertionError as exc:
        with capsys.disabled():
            print(f"FAIL  {name}: {exc}")
        raise
    with capsys.disabled():
        print(f"PASS  {name}: {detail}")


@pytest.mark.parametrize("slot", range(6))
def test_witness_grid_scan_catches_a_shifted_gain(slot, monkeypatch):
    """Criterion 10's batched scan fails when one closed-form gain is off by 0.1."""
    optimize = acceptance.optimize_gains

    def shifted(cfg):
        gains = list(optimize(cfg))
        gains[slot] += 0.1
        return tuple(gains)

    monkeypatch.setattr(acceptance, "optimize_gains", shifted)
    with pytest.raises(AssertionError,
                       match=f"grid scan beat the closed-form gain g{slot + 1}"):
        acceptance.criterion_10_witness()


def test_verify_reports_a_criterion_that_raises_and_runs_the_rest(monkeypatch, capsys):
    def broken():
        raise ValueError("broken criterion")

    criteria = list(CRITERIA)
    criteria[0] = (criteria[0][0], broken)
    monkeypatch.setattr(acceptance, "CRITERIA", criteria)
    assert cli.main(["verify"]) == 1
    out = capsys.readouterr().out
    assert f"FAIL  {CRITERIA[0][0]}: ValueError: broken criterion" in out
    for name, _ in CRITERIA[1:]:
        assert f"PASS  {name}: " in out


def test_verify_builds_each_pipeline_maps_once(monkeypatch):
    """One ``run_all`` builds the maps of each (configuration, basis) key once:
    ``code._maps`` holds every key that verify uses."""
    built = []

    class Counted(code.PipelineMaps):
        def __init__(self, cfg, fourier):
            built.append((cfg, fourier))
            super().__init__(cfg, fourier)

    code._maps.cache_clear()
    monkeypatch.setattr(code, "PipelineMaps", Counted)
    try:
        assert acceptance.run_all(quiet=True)
    finally:
        code._maps.cache_clear()
    assert built and len(built) == len(set(built))
    assert len(built) <= code._maps.cache_info().maxsize

"""Smoke test of `tests/incidence_census.py`, the census of `polybound
bounded --verify` on random incidence files, on a few files."""

import incidence_census


def test_census_on_parsed_files_exits_only_0_2_or_4(monkeypatch):
    # a file that escaped `main` as an uncaught exception would end the
    # census; the count of exit 4 is not pinned, since some parsed files
    # are still no polytope's incidences and fail a later check
    monkeypatch.setattr(incidence_census, "FILES", 40)
    codes, examples = incidence_census.census(parsed=True)
    assert sum(codes.values()) == 40
    assert set(codes) <= {0, 2, 4}, codes
    assert set(examples) == set(codes) - {2}

"""The committed fixtures are exactly what ``gen_fixtures.py`` writes today."""

import gen_fixtures

NAMES = ("safetydb_fixture.json", "snapshot_fixture.json", "expected_forecast.json")


def test_fixture_generator_reproduces_the_committed_files(tmp_path):
    assert gen_fixtures.main(tmp_path) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(NAMES)
    for name in NAMES:
        written = (tmp_path / name).read_bytes()
        assert written == (gen_fixtures.FIXTURES / name).read_bytes(), name

import json

import record_golden


def _same_digests(path, table, what):
    """Compare a table of {"source", "digest"} entries with its golden file,
    naming each input and outcome that differs."""
    golden = json.loads(path.read_text())
    assert sorted(table) == sorted(golden)
    changed_inputs = [n for n in table if table[n]["source"] != golden[n]["source"]]
    assert not changed_inputs, f"inputs differ from the recorded ones: {changed_inputs}"
    changed = [n for n in table if table[n]["digest"] != golden[n]["digest"]]
    assert not changed, f"{what} changed: {changed}"


def test_frontend_matches_golden_digests():
    _same_digests(record_golden.GOLDEN, record_golden.digests(),
                  "load_program output")


def test_tokens_match_golden_digests():
    _same_digests(record_golden.TOKENS, record_golden.token_digests(),
                  "tokenize output")


def test_engine_matches_golden_digests():
    golden = json.loads(record_golden.ENGINE.read_text())
    table = record_golden.engine_digests()
    assert sorted(table) == sorted(golden)
    changed_inputs = [n for n in table if table[n]["source"] != golden[n]["source"]]
    assert not changed_inputs, "programs differ from the recorded ones"
    changed = [f"{n}/{obs}" for n in table for obs in table[n]
               if obs != "source" and table[n][obs] != golden[n].get(obs)]
    assert not changed, f"run_program outcomes changed: {changed[:20]}"
    assert all(sorted(table[n]) == sorted(golden[n]) for n in table)


def test_cli_matches_golden_digests():
    golden = json.loads(record_golden.CLI.read_text())
    table = record_golden.cli_digests()
    assert sorted(table) == sorted(golden)
    changed = [line for line in table if table[line] != golden[line]]
    assert not changed, f"polyc outcomes changed: {changed}"


def test_golden_files_stay_within_budget():
    # the oracle's size budget: all of its slices together, at most 300 KB
    size = sum(p.stat().st_size for p in record_golden.GOLDEN.parent.iterdir())
    assert size <= 300_000, f"tests/golden/ holds {size} bytes"

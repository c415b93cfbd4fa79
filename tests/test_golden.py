import json

import record_golden


def test_frontend_matches_golden_digests():
    golden = json.loads(record_golden.GOLDEN.read_text())
    table = record_golden.digests()
    assert sorted(table) == sorted(golden)
    changed_inputs = [n for n in table if table[n]["source"] != golden[n]["source"]]
    assert not changed_inputs, "inputs differ from the recorded ones"
    changed = [n for n in table if table[n]["digest"] != golden[n]["digest"]]
    assert not changed, "load_program output changed"


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

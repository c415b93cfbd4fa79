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

"""``benchmarks/differential.py`` compares two sides' runs of one schedule
set: a run differs when its trace hash or its violation list does, or
when only one side has it.  With ``--drop`` the hash is taken over the
canonical trace lines without the named kinds."""

from benchmarks.differential import differences, lines_hash


def _violation(oracle, time, message="m"):
    return {"oracle": oracle, "time": time, "node": "server",
            "message": message, "detail": {}}


def _run(trace_hash="a" * 64, *violations):
    return {"trace_hash": trace_hash, "violations": list(violations)}


def test_equal_sides_have_no_differences():
    runs = {"rotation seed=0": _run(),
            "break=x seed=1": _run("b" * 64, _violation("o", 1.0))}
    assert differences(runs, dict(runs)) == []


def test_each_differing_run_is_one_entry_in_run_id_order():
    base = {"r2": _run(), "r1": _run(), "r3": _run("a" * 64,
                                                     _violation("o", 1.0)),
            "gone": _run()}
    change = {"r2": _run("c" * 64), "r1": _run(),
              "r3": _run("a" * 64, _violation("o", 1.0),
                         _violation("o", 2.5, "again")),
              "new": _run()}
    lines = differences(base, change)
    assert [line.split(":")[0] for line in lines] == ["gone", "new", "r2",
                                                      "r3"]
    assert lines[0] == "gone: only on the base side"
    assert lines[1] == "new: only on the change side"
    assert lines[2] == "r2: trace hash aaaaaaaaaaaa -> cccccccccccc"
    assert lines[3] == ("r3: violations 1 -> 2\n"
                        "    + o t=2.500 server: again")


def test_a_reordered_violation_list_differs():
    a, b = _violation("o", 1.0), _violation("p", 1.0)
    assert differences({"r": _run("h", a, b)}, {"r": _run("h", b, a)}) == [
        "r: violations 2 -> 2"]


def test_dropping_a_kind_hashes_the_lines_that_remain():
    base = ["1.000000000 msg.send c1 dst='server' msg_kind='lock.intent'",
            "2.000000000 lease.renewed c1 server='server' start_local=2.0"]
    change = base[:1] + [
        "1.500000000 client.lock c1 mode=2 obj=3 server='server'"] + base[1:]
    assert lines_hash(change, {"client.lock"}) == lines_hash(base, ())
    assert lines_hash(change, ()) != lines_hash(base, ())
    # Only the kind field is matched: a value naming the kind stays.
    named = base + ["3.000000000 fault.inject injector label='client.lock'"]
    assert lines_hash(named, {"client.lock"}) != lines_hash(base, ())
    moved = [base[1], base[0]]
    assert lines_hash(moved, {"client.lock"}) != lines_hash(base, ())

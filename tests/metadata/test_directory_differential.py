"""Differential test: the indexed ``Directory.listdir`` against the
namespace scan it replaced.

``linear_listdir`` below is the scanning method, kept verbatim as a
function over a plain path set: the reference model.  Hypothesis feeds
one ``Directory`` and the reference the same random create/unlink
sequence over a small component alphabet (so implicit directories are
shared, emptied and refilled), then lists every directory prefix the
run could name, in normalized and unnormalized spellings.
"""

from typing import Iterable, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metadata.directory import Directory, NamespaceError, _normalize


def linear_listdir(entries: Iterable[str], prefix: str = "/") -> List[str]:
    norm = _normalize(prefix)
    base = norm if norm.endswith("/") else norm + "/"
    if norm == "/":
        base = "/"
    seen = set()
    for p in entries:
        if p.startswith(base):
            rest = p[len(base):]
            seen.add(base + rest.split("/")[0])
    return sorted(seen)


# Few, short components: paths collide, nest and share parents often;
# the empty path list spells the root itself.
paths = st.lists(st.sampled_from(["a", "b", "ab", "c"]), max_size=4).map(
    lambda parts: "/" + "/".join(parts))
ops = st.lists(st.tuples(st.sampled_from(["create", "unlink"]), paths),
               max_size=30)


def _prefixes(path: str) -> List[str]:
    parts = [p for p in path.split("/") if p]
    return ["/" + "/".join(parts[:i]) for i in range(len(parts) + 1)]


@settings(max_examples=300, deadline=None)
@given(ops=ops, probes=st.lists(paths, max_size=4))
def test_indexed_listdir_matches_linear_scan(ops, probes):
    d = Directory()
    model = {}
    named = set(probes)
    for i, (op, path) in enumerate(ops):
        named.add(path)
        if op == "create":
            if path in model:
                with pytest.raises(NamespaceError):
                    d.create(path, i)
            else:
                d.create(path, i)
                model[path] = i
        elif path in model:
            assert d.unlink(path) == model.pop(path)
        else:
            with pytest.raises(NamespaceError):
                d.unlink(path)
        assert len(d) == len(model)
    for path in sorted(named):
        for prefix in _prefixes(path):
            want = linear_listdir(model, prefix)
            assert d.listdir(prefix) == want, prefix
            assert d.listdir(prefix + "/") == want, prefix
            assert d.listdir("/" + prefix) == want, prefix
    assert d.listdir() == linear_listdir(model)


def test_listdir_drops_an_implicit_directory_with_its_last_entry():
    d = Directory()
    d.create("/x/y/f1", 1)
    d.create("/x/y/f2", 2)
    d.create("/x/g", 3)
    assert d.listdir("/x") == ["/x/g", "/x/y"]
    d.unlink("/x/y/f1")
    assert d.listdir("/x") == ["/x/g", "/x/y"]
    d.unlink("/x/y/f2")
    assert d.listdir("/x") == ["/x/g"]
    assert d.listdir("/x/y") == []
    d.unlink("/x/g")
    assert d.listdir("/") == []

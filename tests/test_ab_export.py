"""``benchmarks/ab.py`` runs both sides of a comparison from fresh
exports: without ``--change`` the change side is the checkout's tracked
files as they stand, exported like the base, never the checkout itself
(whose bytecode caches the base's export lacks).  Its verdict reads
each metric in that metric's own direction."""

import os
import subprocess

from benchmarks.ab import checkout_commit, export, verdict

#: A repository with no configured identity: the export must not need one.
_NO_IDENTITY = {"GIT_CONFIG_GLOBAL": os.devnull, "GIT_CONFIG_NOSYSTEM": "1"}


def _git(repo, *args):
    return subprocess.run(["git", *args], cwd=repo, check=True, text=True,
                          capture_output=True).stdout.strip()


def _repo(tmp_path, monkeypatch):
    for name in ("GIT_AUTHOR_NAME", "GIT_AUTHOR_EMAIL", "GIT_COMMITTER_NAME",
                 "GIT_COMMITTER_EMAIL", "EMAIL"):
        monkeypatch.delenv(name, raising=False)
    for name, value in _NO_IDENTITY.items():
        monkeypatch.setenv(name, value)
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    (repo / "tracked.py").write_text("committed\n")
    _git(repo, "add", "tracked.py")
    _git(repo, "-c", "user.name=t", "-c", "user.email=t@localhost",
         "commit", "-qm", "init")
    return repo


def test_an_uncommitted_edit_is_in_the_export(tmp_path, monkeypatch):
    repo = _repo(tmp_path, monkeypatch)
    (repo / "tracked.py").write_text("edited\n")
    (repo / "untracked.py").write_text("stray\n")
    sha = checkout_commit(str(repo))
    assert sha != _git(repo, "rev-parse", "HEAD")
    out = tmp_path / "out"
    export(sha, str(out), str(repo))
    assert (out / "tracked.py").read_text() == "edited\n"
    assert not (out / "untracked.py").exists()
    # Exporting leaves the checkout as it was.
    assert (repo / "tracked.py").read_text() == "edited\n"
    assert _git(repo, "stash", "list") == ""


def test_a_clean_tree_exports_head(tmp_path, monkeypatch):
    repo = _repo(tmp_path, monkeypatch)
    sha = checkout_commit(str(repo))
    assert sha == _git(repo, "rev-parse", "HEAD")
    out = tmp_path / "out"
    export(sha, str(out), str(repo))
    assert (out / "tracked.py").read_text() == "committed\n"


def test_the_verdict_reads_a_lower_is_better_metric_its_own_way():
    base = [58.2, 58.1, 58.3, 58.2, 58.4, 58.2, 58.1, 58.3, 58.2, 58.2]
    change = [51.7, 51.6, 51.8, 58.5, 51.7, 51.6, 51.7, 51.8, 51.6, 51.7]
    rss = verdict(base, change, "lower")
    assert rss["wins"] == 9 and rss["verdict"] == "gain"
    assert rss["delta"] == 58.2 - 51.7
    rate = verdict(base, change)
    assert rate["wins"] == 1 and rate["verdict"] == "no gain"
    assert rate["delta"] == 51.7 - 58.2

"""Additional EigenHash edge cases and stability guarantees."""

import os
import subprocess
import sys

import repro
import pytest

from repro.core import Pattern, eigen_hash
from repro.core.eigenhash import _stable_hash
from repro.errors import EmbeddingSizeError


def test_hash_stable_across_interpreter_runs():
    """The fingerprint must not depend on PYTHONHASHSEED."""
    code = (
        "from repro.core import Pattern, eigen_hash;"
        "print(eigen_hash(Pattern((1, 0, 2), 0b101)))"
    )
    # The child needs to find `repro` however this process found it —
    # propagate PYTHONPATH plus the imported package's location (the
    # tier-1 invocation sets only PYTHONPATH=src, which a bare env would
    # drop); PYTHONHASHSEED stays pinned per iteration.
    package_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    pythonpath = os.pathsep.join(
        p for p in (package_dir, os.environ.get("PYTHONPATH")) if p
    )
    outs = set()
    for seed in ("0", "1", "random"):
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={
                "PYTHONHASHSEED": seed,
                "PATH": "/usr/bin:/bin",
                "PYTHONPATH": pythonpath,
            },
        )
        assert result.returncode == 0, result.stderr
        outs.add(result.stdout.strip())
    assert len(outs) == 1


def test_stable_hash_separators():
    """Adjacent-int ambiguity must not collide: (1, 23) != (12, 3)."""
    assert _stable_hash((1, 23)) != _stable_hash((12, 3))
    assert _stable_hash(()) != _stable_hash((0,))
    assert _stable_hash((-1,)) != _stable_hash((1,))


def test_single_vertex_patterns():
    a = eigen_hash(Pattern((3,), 0))
    b = eigen_hash(Pattern((4,), 0))
    assert a != b
    assert eigen_hash(Pattern((3,), 0)) == a


def test_empty_pattern():
    assert isinstance(eigen_hash(Pattern((), 0)), int)


def test_disconnected_patterns_distinguished():
    # Two isolated edges vs a path of 3 + isolate: same edge count.
    two_edges = Pattern.from_adjacency(
        [0] * 4, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    )
    path_iso = Pattern.from_adjacency(
        [0] * 4, [[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]]
    )
    assert eigen_hash(two_edges) != eigen_hash(path_iso)


def _ring(k: int) -> Pattern:
    from repro.core.pattern import triangle_index

    bits = 0
    for i in range(k):
        j = (i + 1) % k
        a, b = (i, j) if i < j else (j, i)
        bits |= 1 << triangle_index(a, b, k)
    return Pattern((0,) * k, bits)


def test_eight_vertex_boundary():
    """k = 7 is the largest supported size and must work; k = 8 is where
    the hash stops being collision-free, so it is refused."""
    p = _ring(7)
    q = p.permute([3, 4, 5, 6, 0, 1, 2])
    assert eigen_hash(p) == eigen_hash(q)
    with pytest.raises(EmbeddingSizeError):
        eigen_hash(_ring(8))

"""Unit tests for MNI support counting: the baselines' set-based domains,
the per-row reference the array state in ``repro.apps.mni`` must equal."""

from repro.baselines.mni_sets import SetMNIDomains, merge_set_domains


def test_support_is_min_domain():
    dom = SetMNIDomains(2)
    dom.add((1, 2), None)
    dom.add((1, 3), None)
    dom.add((4, 3), None)
    assert dom.domains[0] == {1, 4}
    assert dom.domains[1] == {2, 3}
    assert dom.support == 2


def test_empty_domains():
    assert SetMNIDomains(0).support == 0
    assert SetMNIDomains(3).support == 0


def test_short_circuit_freezes():
    dom = SetMNIDomains(2)
    dom.add((1, 10), threshold=2)
    assert not dom.frozen
    dom.add((2, 11), threshold=2)
    assert dom.frozen
    dom.add((3, 12), threshold=2)  # ignored
    assert dom.support == 2
    assert 3 not in dom.domains[0]


def test_exact_mode_never_freezes():
    dom = SetMNIDomains(1)
    for i in range(10):
        dom.add((i,), None)
    assert not dom.frozen
    assert dom.support == 10


def test_merge_unions():
    a, b = SetMNIDomains(2), SetMNIDomains(2)
    a.add((1, 2), None)
    b.add((3, 4), None)
    merge_set_domains(a, b, None)
    assert a.domains[0] == {1, 3}
    assert a.support == 2


def test_merge_respects_threshold():
    a, b = SetMNIDomains(1), SetMNIDomains(1)
    a.add((1,), 2)
    b.add((2,), 2)
    merge_set_domains(a, b, 2)
    assert a.frozen
    c = SetMNIDomains(1)
    c.add((9,), 2)
    merge_set_domains(a, c, 2)
    assert 9 not in a.domains[0]


def test_merge_frozen_other_freezes():
    a, b = SetMNIDomains(1), SetMNIDomains(1)
    b.add((1,), 1)
    assert b.frozen
    merge_set_domains(a, b, 1)
    assert a.frozen


def test_nbytes_grows():
    dom = SetMNIDomains(2)
    before = dom.nbytes
    dom.add((1, 2), None)
    assert dom.nbytes > before

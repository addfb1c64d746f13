"""The lock-order sanitizer: inversions raise before they can deadlock."""

import threading

import pytest

from repro.analysis import LockOrderSanitizer, TrackedLock
from repro.apps import TriangleCounting
from repro.core.engine import KaleidoEngine
from repro.errors import KaleidoError, LockOrderError
from repro.service import MiningService, QueryRequest


class TwoLocks:
    def __init__(self):
        self.alpha = threading.Lock()
        self.beta = threading.Lock()


def test_inverted_pair_raises():
    # Thread 1 records alpha -> beta; the main thread then tries the
    # deliberately inverted beta -> alpha and must be stopped.
    sanitizer = LockOrderSanitizer()
    obj = TwoLocks()
    sanitizer.instrument(obj)

    def forward():
        with obj.alpha:
            with obj.beta:
                pass

    worker = threading.Thread(target=forward, name="forward-thread")
    worker.start()
    worker.join()

    with obj.beta:
        with pytest.raises(LockOrderError) as excinfo:
            obj.alpha.acquire()
    message = str(excinfo.value)
    assert "TwoLocks.alpha" in message
    assert "TwoLocks.beta" in message
    assert "forward-thread" in message
    assert "inversion" in message
    sanitizer.restore()


def test_inversion_detected_without_actual_contention():
    # No second thread is even blocked — the edge graph alone convicts.
    sanitizer = LockOrderSanitizer()
    obj = TwoLocks()
    sanitizer.instrument(obj)
    with obj.alpha:
        with obj.beta:
            pass
    with obj.beta:
        with pytest.raises(LockOrderError):
            with obj.alpha:
                pass
    sanitizer.restore()


def test_consistent_order_stays_silent():
    sanitizer = LockOrderSanitizer()
    obj = TwoLocks()
    sanitizer.instrument(obj)
    for _ in range(3):
        with obj.alpha:
            with obj.beta:
                pass
    assert sanitizer.edges() == frozenset({("TwoLocks.alpha", "TwoLocks.beta")})
    sanitizer.restore()


def test_transitive_cycle_detected():
    # a -> b and b -> c recorded; c -> a closes the cycle through b.
    class ThreeLocks:
        def __init__(self):
            self.a = threading.Lock()
            self.b = threading.Lock()
            self.c = threading.Lock()

    sanitizer = LockOrderSanitizer()
    obj = ThreeLocks()
    sanitizer.instrument(obj)
    with obj.a:
        with obj.b:
            pass
    with obj.b:
        with obj.c:
            pass
    with obj.c:
        with pytest.raises(LockOrderError):
            with obj.a:
                pass
    sanitizer.restore()


def test_reentrant_rlock_is_not_an_inversion():
    class Reentrant:
        def __init__(self):
            self.guard = threading.RLock()

    sanitizer = LockOrderSanitizer()
    obj = Reentrant()
    sanitizer.instrument(obj)
    with obj.guard:
        with obj.guard:  # same name on the held stack: no edge
            pass
    assert sanitizer.edges() == frozenset()
    sanitizer.restore()


def test_condition_wait_drops_and_reacquires():
    class Queue:
        def __init__(self):
            self.cond = threading.Condition()
            self.ready = False

    sanitizer = LockOrderSanitizer()
    obj = Queue()
    sanitizer.instrument(obj)

    def producer():
        with obj.cond:
            obj.ready = True
            obj.cond.notify()

    worker = threading.Thread(target=producer)
    with obj.cond:
        worker.start()
        assert obj.cond.wait_for(lambda: obj.ready, timeout=5)
        assert sanitizer.held_locks() == ("Queue.cond",)
    worker.join()
    assert sanitizer.held_locks() == ()
    sanitizer.restore()


def test_instrument_and_restore_round_trip():
    sanitizer = LockOrderSanitizer()
    obj = TwoLocks()
    raw_alpha = obj.alpha
    wrapped = sanitizer.instrument(obj)
    assert sorted(wrapped) == ["TwoLocks.alpha", "TwoLocks.beta"]
    assert isinstance(obj.alpha, TrackedLock)
    assert obj.alpha.inner is raw_alpha
    sanitizer.restore()
    assert obj.alpha is raw_alpha
    assert isinstance(obj.beta, type(threading.Lock()))


def test_lock_order_error_is_kaleido_error():
    assert issubclass(LockOrderError, KaleidoError)


# ----------------------------------------------------------------------
# Integration: the engine and service wiring
# ----------------------------------------------------------------------
def test_sanitized_engine_run_is_lock_order_clean(paper_graph):
    with KaleidoEngine(paper_graph, workers=4, executor="threads", sanitize=True) as engine:
        result = engine.run(TriangleCounting())
    assert result.pattern_map  # ran to completion: no inversions raised


def test_sanitized_service_round_trip(small_random):
    svc = MiningService(engine_kwargs={"workers": 2}, sanitize=True)
    try:
        instrumented = len(svc.lock_sanitizer._instrumented)
        assert instrumented > 0  # service-tier locks actually wrapped
        result = svc.query(QueryRequest(app="tc", graph=small_random, tenant="t0"))
        assert result.pattern_map is not None
    finally:
        svc.close()
    assert svc.lock_sanitizer is None  # restored and released on close


def test_unsanitized_service_has_no_sanitizer(small_random):
    svc = MiningService()
    try:
        assert svc.lock_sanitizer is None
    finally:
        svc.close()

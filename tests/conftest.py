import contextlib
import faulthandler
import signal

import pytest

# a test phase (setup, call or teardown) still running after this long
# fails with every thread's stack on stderr: a stalled Ray job costs that
# one test, not the whole run
TEST_TIME_LIMIT_S = 600


@contextlib.contextmanager
def _time_limit(item, phase: str):
    def expire(signum, frame):
        faulthandler.dump_traceback(all_threads=True)
        raise TimeoutError(
            f"{item.nodeid} {phase} ran over {TEST_TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_setup(item):
    with _time_limit(item, "setup"):
        yield


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    with _time_limit(item, "call"):
        yield


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_teardown(item):
    with _time_limit(item, "teardown"):
        yield


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()

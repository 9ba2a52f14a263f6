import mmap
import os
import signal

import numpy as np
import pytest

from finsent import _fork


def root(array):
    while isinstance(array, np.ndarray):
        array = array.base
    return array.obj if isinstance(array, memoryview) else array


def double(x):
    return 2 * x


def fail(message):
    raise KeyError(message)


def pid():
    return os.getpid()


@pytest.fixture
def peer():
    served = _fork.Peer(lambda: {"double": double, "fail": fail, "pid": pid})
    yield served
    served.close()
    with pytest.raises(ChildProcessError):
        os.waitpid(served.pid, os.WNOHANG)


class TestPeer:
    def test_requests_are_answered_in_the_peer(self, peer):
        peer.send("pid")
        assert peer.recv() == peer.pid != os.getpid()
        peer.send("double", np.arange(3))
        assert np.array_equal(peer.recv(), [0, 2, 4])

    def test_an_exception_is_raised_here_with_its_type_and_message(self, peer):
        peer.send("fail", "no such tensor")
        with pytest.raises(KeyError, match="no such tensor"):
            peer.recv()
        peer.send("double", 4)  # the peer still serves
        assert peer.recv() == 8

    @pytest.mark.parametrize("then", ["recv", "send"])
    def test_a_killed_peer_fails_the_next_exchange_naming_it(self, peer, then):
        os.kill(peer.pid, signal.SIGKILL)
        message = f"peer {peer.pid} ended without a result \\(killed by signal 9\\)"
        with pytest.raises(RuntimeError, match=message):
            if then == "recv":
                peer.recv()
            else:
                for _ in range(100):  # until the pipe reports the peer gone
                    peer.send("double", np.zeros(10_000))
        with pytest.raises(RuntimeError, match=message):
            peer.send("double", 1)

    def test_the_handlers_are_built_in_the_peer_and_their_error_raised_here(self):
        built_in = []

        def make_handlers():
            built_in.append(os.getpid())
            if len(built_in) == 1:
                raise MemoryError("no room for the scratch")
            return {"built_in": lambda: built_in}

        served = _fork.Peer(make_handlers)
        try:
            served.send("built_in")
            with pytest.raises(MemoryError, match="no room for the scratch"):
                served.recv()
            served.send("built_in")
            assert served.recv() == [served.pid, served.pid]
        finally:
            served.close()
        assert built_in == []

    def test_close_ends_an_idle_peer(self):
        served = _fork.Peer(dict)
        served.close()
        served.close()
        with pytest.raises(ChildProcessError):
            os.waitpid(served.pid, os.WNOHANG)


class TestShared:
    def test_views_of_one_mapping_that_a_peer_writes(self):
        vec = _fork.shared(10)
        assert vec.shape == (10,) and vec.dtype == np.float64 and not vec.any()
        assert isinstance(root(vec), mmap.mmap)
        a, b = vec[:6].reshape(2, 3), vec[6:]

        def fill(value):
            b[:] = value

        served = _fork.Peer(lambda: {"fill": fill})
        try:
            served.send("fill", 2.5)
            served.recv()
        finally:
            served.close()
        assert list(b) == [2.5] * 4 and not a.any()

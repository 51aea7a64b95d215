"""The ffn-3 attention heads on threads in training and scoring: same bytes at any CPU count, threads where they pay.

The model reads its CPU count from model._cpus; each test patches it to
force 1, 2 or 4 CPUs, whatever the runner has. At most
model.HEAD_THREADS threads run, whatever the CPU count. The BLAS tests at
the end each start a new interpreter, since the thread count they read is
process-wide.
"""

import ctypes
import functools
import glob
import itertools
import math
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

import pigat
import pigat.model as model_mod
from pigat.config import TrainConfig
from pigat.data import prepare_dataset
from pigat.errors import NumericError, UsageError
from pigat.features import ITEM, USER
from pigat.model import (
    BLAS_THREAD_VARS,
    HEAD_THREADS,
    KEEP_FREED_BYTES,
    M_MMAP_THRESHOLD,
    M_TRIM_THRESHOLD,
    backward,
    forward,
    head_wiring,
    init_params,
    predict,
)
from pigat.synth import SynthSpec, generate
from pigat.train import train

CPUS = (1, 2, 4)


@pytest.fixture(scope="module")
def small_log():
    log, _ = generate(SynthSpec(users=12, items=20, events=200, exponent=1.0, seed=7))
    return log


def config(**kw) -> TrainConfig:
    base = dict(
        epochs=2,
        batch_size=32,
        max_neighbors=4,
        user_embed_width=4,
        item_embed_width=4,
        hidden_width=8,
        confidence="ce",
        seed=3,
    )
    return TrainConfig(**{**base, **kw}).validate()


def run_at(monkeypatch, cpus, cfg, data):
    """(trained store, first-step grads, test scores) with the model seeing `cpus` CPUs.

    The interpreter switches threads every microsecond, so the heads'
    Python code interleaves as finely as it can.
    """
    monkeypatch.setattr(model_mod, "_cpus", lambda: cpus)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        params = init_params(np.random.default_rng(4), data.schema, cfg)
        batch = data.train.take(np.arange(cfg.batch_size))
        state = forward(params, batch, mode="train", rng=np.random.default_rng(9))
        backward(params, state)
        grads = {name: g.tobytes() for name, g in params.grads.items()}
        result = train(cfg, data)
        return result.params.store.tobytes(), grads, predict(result.params, data.test).tobytes()
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize(
    "attention, user_query_only, confidence_in_pooling, dropout",
    list(itertools.product(["ffn-2", "ffn-3"], [False, True], [False, True], [0.0, 0.3])),
)
def test_same_bytes_at_every_cpu_count(monkeypatch, small_log, attention, user_query_only, confidence_in_pooling, dropout):
    cfg = config(
        attention=attention,
        user_query_only=user_query_only,
        confidence_in_pooling=confidence_in_pooling,
        dropout=dropout,
    )
    data = prepare_dataset(small_log, cfg)
    runs = {cpus: run_at(monkeypatch, cpus, cfg, data) for cpus in CPUS}
    store, grads, scores = runs[1]
    for cpus in CPUS[1:]:
        assert runs[cpus][0] == store, f"store bytes at {cpus} CPUs"
        assert runs[cpus][1] == grads, f"grads at {cpus} CPUs"
        assert runs[cpus][2] == scores, f"scores at {cpus} CPUs"


def submissions(monkeypatch) -> list:
    """The arguments of every call handed to any thread pool from now on, in order."""
    submitted, submit = [], ThreadPoolExecutor.submit

    def counted(self, fn, *args, **kwargs):
        submitted.append(args)
        return submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(ThreadPoolExecutor, "submit", counted)
    return submitted


def one_step(monkeypatch, cfg, data, cpus, spies):
    """Pool submissions of one forward and backward at `cpus` CPUs.

    spies(params) maps model function names to wrappers of the originals.
    """
    monkeypatch.setattr(model_mod, "_cpus", lambda: cpus)
    submitted = submissions(monkeypatch)
    params = init_params(np.random.default_rng(4), data.schema, cfg)
    for name, spy in spies(params).items():
        monkeypatch.setattr(model_mod, name, spy(getattr(model_mod, name)))
    batch = data.train.take(np.arange(cfg.batch_size))
    backward(params, forward(params, batch, mode="train"))
    return submitted


@pytest.mark.parametrize(
    "overrides",
    [dict(attention="dot"), dict(attention="scaled-dot"), dict(attention="ffn-1"), dict(attention="ffn-2"),
     dict(attention="ffn-3", pooling="average")],
    ids=["dot", "scaled-dot", "ffn-1", "ffn-2", "average"],
)
def test_heads_without_two_hidden_layers_start_no_thread(monkeypatch, small_log, overrides):
    cfg = config(**overrides)
    data = prepare_dataset(small_log, cfg)
    threads = []

    def spy(fn):
        def pooled(weights, values):
            threads.append(threading.get_ident())
            return fn(weights, values)

        return pooled

    submitted = one_step(monkeypatch, cfg, data, 4, lambda _: {"pooled_embedding": spy})
    predict(init_params(np.random.default_rng(4), data.schema, cfg), data.test)
    chunks = math.ceil(len(data.test) / cfg.batch_size)
    assert threads == [threading.get_ident()] * len(head_wiring(cfg)) * (1 + chunks)  # the step's forward, then scoring
    assert submitted == []


def off_caller(cfg, w) -> list[tuple[str]]:
    """The heads that run off the caller at W = w threads, as submitted: head i where i % w != 0."""
    return [(name,) for i, name in enumerate(head_wiring(cfg)) if i % w]


def test_scoring_submits_the_off_caller_heads_per_chunk(monkeypatch, small_log):
    cfg = config(attention="ffn-3")
    data = prepare_dataset(small_log, cfg)
    monkeypatch.setattr(model_mod, "_cpus", lambda: 4)
    submitted = submissions(monkeypatch)
    params = init_params(np.random.default_rng(4), data.schema, cfg)
    predict(params, data.train)
    chunks = math.ceil(len(data.train) / cfg.batch_size)
    assert chunks > 1
    assert submitted == off_caller(cfg, min(4, HEAD_THREADS)) * chunks


@pytest.mark.parametrize("cpus", CPUS)
def test_eval_states_hold_no_ffn_cache(monkeypatch, small_log, cpus):
    # Only backward reads the caches, and it takes train states only; a worker-run eval head drops its cache too.
    cfg = config(attention="ffn-3")
    data = prepare_dataset(small_log, cfg)
    monkeypatch.setattr(model_mod, "_cpus", lambda: cpus)
    params = init_params(np.random.default_rng(4), data.schema, cfg)
    batch = data.train.take(np.arange(cfg.batch_size))
    assert all(cache is None for cache in forward(params, batch, mode="eval").caches.values())
    assert all(cache is not None for cache in forward(params, batch, mode="train").caches.values())


@pytest.mark.parametrize("cpus", CPUS)
def test_an_all_cold_side_scores_on_zero_rows(monkeypatch, small_log, cpus):
    # Every item window of the batch is cold, so the ffn-3 heads on that side score no row, on any thread.
    cfg = config(attention="ffn-3")
    data = prepare_dataset(small_log, cfg)
    monkeypatch.setattr(model_mod, "_cpus", lambda: cpus)
    params = init_params(np.random.default_rng(4), data.schema, cfg)
    batch = data.train.take(np.flatnonzero(~data.train.mask[ITEM].any(axis=1)))
    packed = forward(params, batch, mode="eval")
    assert len(packed.aug[ITEM]) == 0 and 0 < len(packed.aug[USER]) < len(batch)
    with monkeypatch.context() as patched:
        patched.setattr(model_mod, "window_rows", lambda config, mask, train: slice(None))
        full = forward(params, batch, mode="eval")
    assert packed.prob.tobytes() == full.prob.tobytes()
    for side in (USER, ITEM):
        assert packed.values[side] is packed.aug[side] and full.values[side] is full.aug[side]
    for name, (window, _) in head_wiring(cfg).items():
        cold = np.ones(len(batch), dtype=bool)
        cold[packed.rows[window]] = False
        # The packed weights are the every-row weights at the packed rows, whose others are +0.0.
        assert packed.weights[name].tobytes() == full.weights[name][~cold].tobytes(), name
        assert full.weights[name][cold].tobytes() == np.zeros_like(full.weights[name][cold]).tobytes(), name
        assert packed.pools[name].tobytes() == full.pools[name].tobytes(), name


@pytest.mark.parametrize("cpus", CPUS)
def test_head_i_runs_on_thread_i_mod_w(monkeypatch, small_log, cpus):
    cfg = config(attention="ffn-3")
    names = list(head_wiring(cfg))
    forward_on, backward_on = {}, {}

    def spies(params):
        heads = {id(head): name for name, head in params.heads.items()}

        def logits_spy(fn):
            def logits(head, *args):
                forward_on[heads[id(head)]] = threading.current_thread()
                return fn(head, *args)

            return logits

        return {"attention_logits": logits_spy, "_head_backward": backward_spy}

    def backward_spy(fn):
        def head_backward(head, name, *args):
            backward_on[name] = threading.current_thread()
            return fn(head, name, *args)

        return head_backward

    submitted = one_step(monkeypatch, cfg, prepare_dataset(small_log, cfg), cpus, spies)
    w = min(cpus, HEAD_THREADS)
    for on in (forward_on, backward_on):
        assert sorted(on) == sorted(names)
        assert len(set(on.values())) <= w
        for i, name in enumerate(names):
            # Head i runs on the caller iff i % W == 0, and on a pool thread otherwise.
            assert (on[name] is threading.current_thread()) == (i % w == 0), name
            assert i % w == 0 or on[name].name.startswith("pigat-head"), name
    assert submitted == off_caller(cfg, w) * 2  # the off-caller heads, in forward and in backward


@pytest.mark.parametrize("head", ["ui", "ua", "ia"])
def test_an_error_in_a_head_reaches_the_caller(monkeypatch, small_log, head):
    # At 2 CPUs ua and ia run on the worker thread, ui on the caller.
    cfg = config(attention="ffn-3")
    data = prepare_dataset(small_log, cfg)
    monkeypatch.setattr(model_mod, "_cpus", lambda: 2)
    params = init_params(np.random.default_rng(4), data.schema, cfg)
    batch = data.train.take(np.arange(cfg.batch_size))
    error = NumericError(f"head {head} failed")
    logits_fn, backward_fn = model_mod.attention_logits, model_mod._head_backward

    def failing_logits(att_head, *args):
        if att_head is params.heads[head]:
            raise error
        return logits_fn(att_head, *args)

    def failing_backward(att_head, name, *args):
        if name == head:
            raise error
        return backward_fn(att_head, name, *args)

    with monkeypatch.context() as patched:
        patched.setattr(model_mod, "attention_logits", failing_logits)
        for score in (lambda: forward(params, batch, mode="train"), lambda: predict(params, batch)):
            with pytest.raises(NumericError) as raised:
                score()
            assert raised.value is error
    state = forward(params, batch, mode="train")  # the pool still serves the next call
    with monkeypatch.context() as patched:
        patched.setattr(model_mod, "_head_backward", failing_backward)
        with pytest.raises(NumericError) as raised:
            backward(params, state)
        assert raised.value is error
    # The failed backward consumed the state: its caches may already hold gradients.
    assert state.mode == "consumed"
    with pytest.raises(UsageError, match="'consumed'"):
        backward(params, state)
    params.grads["att_ia.w0"][...] = np.nan
    backward(params, forward(params, batch, mode="train"))  # the retry runs forward again
    assert np.isfinite(params.grads["att_ia.w0"]).all()
    assert predict(params, batch).tobytes() == forward(params, batch, mode="eval").prob.tobytes()


def test_a_step_runs_where_the_os_has_no_cpu_affinity(monkeypatch, small_log):
    # os.sched_getaffinity exists on Linux only; elsewhere the model counts the machine's CPUs.
    cfg = config(attention="ffn-3")
    data = prepare_dataset(small_log, cfg)
    batch = data.train.take(np.arange(cfg.batch_size))

    def step_grads() -> dict[str, bytes]:
        params = init_params(np.random.default_rng(4), data.schema, cfg)
        state = forward(params, batch, mode="train", rng=np.random.default_rng(9))
        backward(params, state)
        return {name: g.tobytes() for name, g in params.grads.items()}

    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert model_mod._cpus() == 2
    grads = step_grads()
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # cpu_count may not know
    assert model_mod._cpus() == 1
    assert step_grads() == grads


def new_allocator_cache(monkeypatch):
    """model._keep_freed_memory with an empty cache, so the next model build asks for mallopt again."""
    monkeypatch.setattr(model_mod, "_keep_freed_memory", functools.cache(model_mod._keep_freed_memory.__wrapped__))


@pytest.fixture
def new_pools(monkeypatch):
    """model._pool and model._keep_freed_memory with empty caches for one test.

    Yields the list of pools built meanwhile; each is shut down afterwards,
    and the process's own pool is back in place.
    """
    build, pools = model_mod._pool.__wrapped__, []

    def pool():
        pools.append(build())
        return pools[-1]

    monkeypatch.setattr(model_mod, "_pool", functools.cache(pool))
    new_allocator_cache(monkeypatch)
    yield pools
    for built in pools:
        built.shutdown()


def test_no_head_outlives_the_call(monkeypatch):
    # At 2 CPUs head 1 (ua) runs on the pool. It is still running when the
    # consumer raises after the first head, and the call waits for it.
    monkeypatch.setattr(model_mod, "_cpus", lambda: 2)
    go, finished = threading.Event(), threading.Event()

    def run(name):
        if name == "ua":
            go.wait(timeout=10)
            time.sleep(0.05)
            finished.set()
        return name

    with pytest.raises(RuntimeError, match="consumer failed"):
        for _ in model_mod._each_head(config(attention="ffn-3"), run):
            go.set()
            raise RuntimeError("consumer failed")
    assert finished.is_set()


def step_and_scores(monkeypatch, cfg, data, cpus) -> tuple[dict[str, bytes], bytes]:
    """(first-step grads, test scores) with the model seeing `cpus` CPUs."""
    monkeypatch.setattr(model_mod, "_cpus", lambda: cpus)
    params = init_params(np.random.default_rng(4), data.schema, cfg)
    batch = data.train.take(np.arange(cfg.batch_size))
    state = forward(params, batch, mode="train", rng=np.random.default_rng(9))
    backward(params, state)
    grads = {name: g.tobytes() for name, g in params.grads.items()}
    return grads, predict(params, data.test).tobytes()


def spy_mallopt(monkeypatch) -> list:
    """The (param, value, threads started since the call) of each mallopt call from now on."""
    calls, before = [], set(threading.enumerate())

    def mallopt(param, value):
        calls.append((param, value, set(threading.enumerate()) - before))
        return 1

    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
    return calls


# Both thresholds, set while no thread of the model is running.
SET_AT_BUILD = [(M_TRIM_THRESHOLD, KEEP_FREED_BYTES, set()), (M_MMAP_THRESHOLD, KEEP_FREED_BYTES, set())]


def test_the_allocator_is_set_once_before_the_first_head_thread(monkeypatch, small_log, new_pools):
    cfg = config(attention="ffn-3")
    data = prepare_dataset(small_log, cfg)
    before, calls = set(threading.enumerate()), spy_mallopt(monkeypatch)
    monkeypatch.setattr(model_mod, "_cpus", lambda: 1)
    init_params(np.random.default_rng(4), data.schema, cfg)
    assert calls == SET_AT_BUILD  # at the first model build
    step_and_scores(monkeypatch, cfg, data, 1)
    assert calls == SET_AT_BUILD and new_pools == []  # one CPU starts no pool, and asks nothing more
    for _ in range(2):
        step_and_scores(monkeypatch, cfg, data, 2)
    assert calls == SET_AT_BUILD  # once per process
    assert len(new_pools) == 1
    assert {t.name for t in set(threading.enumerate()) - before} == {"pigat-head_0"}  # the new pool's thread


@pytest.mark.parametrize("attention", ["scaled-dot", "ffn-1", "ffn-2"])
def test_the_allocator_is_set_for_heads_that_start_no_thread(monkeypatch, small_log, new_pools, attention):
    cfg = config(attention=attention)
    data = prepare_dataset(small_log, cfg)
    calls = spy_mallopt(monkeypatch)
    for cpus in CPUS:
        step_and_scores(monkeypatch, cfg, data, cpus)
    assert calls == SET_AT_BUILD and new_pools == []


def no_library(name):
    raise OSError(f"{name}: cannot open shared object file")


def no_handle(name):
    raise TypeError("a C library handle needs a name here")  # ctypes.CDLL(None) on Windows


@pytest.mark.parametrize(
    "cdll", [no_library, no_handle, lambda name: SimpleNamespace()], ids=["OSError", "TypeError", "no-mallopt"]
)
def test_a_c_library_without_mallopt_changes_no_byte(monkeypatch, small_log, new_pools, cdll):
    cfg = config(attention="ffn-3")
    data = prepare_dataset(small_log, cfg)
    sequential = step_and_scores(monkeypatch, cfg, data, 1)
    opened = []
    monkeypatch.setattr(ctypes, "CDLL", lambda name: (opened.append(name), cdll(name))[1])
    new_allocator_cache(monkeypatch)
    assert step_and_scores(monkeypatch, cfg, data, 2) == sequential
    assert opened == [None]  # the model build asked the C library for mallopt
    assert len(new_pools) == 1  # and the threaded path ran


# Run in a fresh interpreter, since the BLAS thread count is process-wide:
# prints OpenBLAS's thread count before and after init_params, then a hash
# of one ffn-3 step's gradients. With the argument "no-symbol", the library
# the model opens lacks the symbol that sets the count.
BLAS_PROBE = """
import ctypes, glob, hashlib, os, sys
from types import SimpleNamespace
import numpy as np
from pigat.config import TrainConfig
from pigat.data import prepare_dataset
from pigat.model import backward, forward, init_params
from pigat.synth import SynthSpec, generate

lib = ctypes.CDLL(sys.argv[1])
if sys.argv[2] == "no-symbol":
    cdll = ctypes.CDLL
    ctypes.CDLL = lambda name, *a, **kw: SimpleNamespace() if "openblas" in str(name) else cdll(name, *a, **kw)
before = lib.scipy_openblas_get_num_threads64_()
cfg = TrainConfig(epochs=1, batch_size=32, max_neighbors=4, user_embed_width=4, item_embed_width=4,
                  hidden_width=8, attention="ffn-3", seed=3).validate()
data = prepare_dataset(generate(SynthSpec(users=12, items=20, events=200, exponent=1.0, seed=7))[0], cfg)
params = init_params(np.random.default_rng(4), data.schema, cfg)
after = lib.scipy_openblas_get_num_threads64_()
batch = data.train.take(np.arange(cfg.batch_size))
backward(params, forward(params, batch, mode="train"))
print(before, after, hashlib.sha256(b"".join(g.tobytes() for g in params.grads.values())).hexdigest())
"""


def blas_probe(mode: str, **blas_env: str) -> tuple[int, int, str]:
    """(thread count before init_params, after it, step hash) in a new process with only blas_env set."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*"))
    if not libs:
        pytest.skip("this numpy bundles no scipy-openblas")
    src = os.path.dirname(os.path.dirname(pigat.__file__))
    env = {var: value for var, value in os.environ.items() if var not in BLAS_THREAD_VARS}
    env |= {"PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))} | blas_env
    out = subprocess.run(
        [sys.executable, "-c", BLAS_PROBE, libs[0], mode], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    before, after, digest = out.stdout.split()
    return int(before), int(after), digest


def test_the_model_asks_for_one_blas_thread_unless_a_count_is_set():
    assert blas_probe("pin")[1] == 1
    before, after, _ = blas_probe("pin", OPENBLAS_NUM_THREADS="2")
    assert before == after == min(2, model_mod._cpus())
    before, after, _ = blas_probe("pin", OMP_NUM_THREADS="2")
    assert before == after == min(2, model_mod._cpus())


def test_a_blas_library_without_the_symbol_changes_no_byte():
    before, after, digest = blas_probe("no-symbol")
    assert after == before  # left as it is
    assert blas_probe("pin")[2] == digest

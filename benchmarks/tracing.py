"""Per-layer tracing for the benchmark's traced run.

The tracer wraps public functions of the ``varorder`` package from the
outside.  Each wrapped function is rebound in its defining module and under
every other name that points at the same object (``from ... import`` copies
such as ``cli.asvar_homogeneous`` or ``cli.rmcmc_step``), so calls that go
through ``cli`` are seen too.  Nothing inside the package is edited.

Every wrapped call adds to per-function aggregates: call count, total
(inclusive) time and self time, where self time is the call's duration minus
the time of the wrapped calls made inside it.  Functions that are not hot
per-step code also record one span each (name, start, end, parent span,
op index); spans stay in memory until the caller writes them out.  Hot
per-step functions are timed in thread CPU time, other functions in wall
time.

Worker threads (the ``--threads`` path of ``rmcmc-gaussian``) have their own
call stack; a call made on a worker thread with an empty stack is charged to
the span open on the thread that started the tracer.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time

# (module, attribute) of every traced function.  ``HOT`` ones run once per
# chain step and get aggregates only, never one span per call.
TRACED = (
    ("exactify", "freeze_acceptance_table"),
    ("exactify", "accept_kernel"),
    ("exactify", "extract_kernel"),
    ("exactify", "stationary_distribution"),
    ("variance", "asvar_homogeneous"),
    ("variance", "asvar_alternating"),
    ("variance", "alternating_partial_sum_variance"),
    ("variance", "batch_means_variance"),
    ("ergodicity", "fit_certificate"),
    ("ergodicity", "summability_certificate"),
    ("toys", "random_lazy_quadruple"),
    ("kernels", "detailed_balance_check"),
    ("kernels", "off_diagonal_order_check"),
    ("cli", "run_scenario"),
    ("samplers", "run_chain"),
    ("samplers", "freeze_step"),
    ("samplers", "random_refresh_step"),
    ("special_cases", "rmcmc_step"),
    ("special_cases", "gmtm_step"),
    ("pseudo_marginal", "ImportanceModel.log_estimate"),
)
HOT = {"samplers.freeze_step", "samplers.random_refresh_step",
       "special_cases.rmcmc_step", "special_cases.gmtm_step",
       "pseudo_marginal.log_estimate"}


class Tracer:
    """Installs wrappers on enter, restores the originals on exit."""

    def __init__(self):
        self.spans = []            # (id, name, start, end, parent id, op)
        self.op = None             # index of the op being run, set by the caller
        self.counters = {"exactify.kernel_bytes": 0, "samplers.run_chain.steps": 0}
        self.accepts = {}          # step kind -> [accepted, proposed]
        self._local = threading.local()
        self._thread_stats = []    # one {name: [calls, total_s, self_s]} per thread
        self._main_stack = None
        self._restore = []
        self._ids = itertools.count(1)

    # -- per-thread state ------------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.stats = {}
            self._thread_stats.append(local.stats)  # list.append is atomic
        return local

    def stats(self) -> dict:
        """Merged {name: (calls, total_s, self_s)} over every thread."""
        merged = {}
        for per_thread in list(self._thread_stats):
            for name, (calls, total, self_s) in per_thread.items():
                c, t, s = merged.get(name, (0, 0.0, 0.0))
                merged[name] = (c + calls, t + total, s + self_s)
        return merged

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, name: str, fn, on_return=None):
        hot = name in HOT
        # per-step calls on the threaded rmcmc path would otherwise also count
        # the time their thread waits for the interpreter lock
        clock = time.thread_time if hot else time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = self._state()
            stack = local.stack
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else None)
            frame = [0.0, None]  # child time, span id
            if not hot:
                frame[1] = next(self._ids)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[0] += dur
                entry = local.stats.get(name)
                if entry is None:
                    entry = local.stats[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dur
                entry[2] += max(dur - frame[0], 0.0)
                if not hot:
                    self.spans.append((frame[1], name, start, end,
                                       parent[1] if parent else None, self.op))
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    def _on_extract_kernel(self, args, kwargs, result):
        n = result.kernel.size
        self.counters["exactify.kernel_bytes"] += 8 * n * n

    def _on_run_chain(self, args, kwargs, result):
        self.counters["samplers.run_chain.steps"] += len(result) - 1
        for kind, (acc, tot) in result.accept_counts.items():
            pair = self.accepts.setdefault(kind, [0, 0])
            pair[0] += acc
            pair[1] += tot

    def __enter__(self):
        hooks = {"exactify.extract_kernel": self._on_extract_kernel,
                 "samplers.run_chain": self._on_run_chain}
        state = self._state()
        self._main_stack = state.stack
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and key.startswith("varorder")]
        for mod_name, attr in TRACED:
            module = importlib.import_module(f"varorder.{mod_name}")
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, fn_name)
            label = f"{mod_name}.{fn_name}"
            wrapped = self._wrap(label, original, hooks.get(label))
            self._rebind(owner, fn_name, original, wrapped)
            if owner_name:
                continue  # a method: rebinding the class attribute covers every caller
            for other in modules:
                for key, value in list(vars(other).items()):
                    if value is original and other is not owner:
                        self._rebind(other, key, original, wrapped)
        return self

    def _rebind(self, owner, key, original, wrapped):
        setattr(owner, key, wrapped)
        self._restore.append((owner, key, original))

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()
        self._main_stack = None
        return False

"""Span tracer installed from the benchmark around the package's public calls.

No file of the package changes: :meth:`Tracer.install` replaces each traced
function under every ``mpembasim`` module name its callers look it up by (for
example ``apply_channel`` is imported by name into ``mpemba`` and ``otto``)
and :meth:`Tracer.uninstall` puts the originals back.

Each span records its name, start, end and parent span in flat arrays kept
in memory until the run ends.  Self time is a span's duration minus the
durations of its child spans.  Two waste counters are kept where the work
happens:

* ``build_heat_exchange`` calls whose (environment, J, tau) was already seen
  in the same operation (an operation starts at :meth:`begin_operation`);
* ``decompose`` calls made while ``mpemba_unitary`` is running, i.e. the
  probe decomposition it builds when none is passed.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

#: (module, function) pairs traced, named ``<module>.<function>``
TARGETS = (
    ("numerics", "eig_general"),
    ("numerics", "logm_principal"),
    ("numerics", "expm"),
    ("liouville", "extract_generator"),
    ("liouville", "decompose"),
    ("channels", "build_heat_exchange"),
    ("channels", "apply_channel"),
    ("operators", "validate_density_matrix"),
    ("thermo", "f_neq"),
    ("thermo", "trace_distance"),
    ("thermo", "gibbs_state"),
    ("mpemba", "mpemba_unitary"),
    ("mpemba", "free_energy_surface"),
    ("mpemba", "cooling_curves"),
    ("otto", "run_cycle"),
    ("otto", "distance_curves"),
    ("otto", "threshold_times"),
    ("otto", "power_ratio"),
    ("config_io", "load_config"),
    ("config_io", "write_table"),
    ("cli", "main"),
)

NAMES = tuple(f"{module}.{function}" for module, function in TARGETS)

_EXCHANGE = NAMES.index("channels.build_heat_exchange")
_DECOMPOSE = NAMES.index("liouville.decompose")
_UNITARY = NAMES.index("mpemba.mpemba_unitary")
_WRITE = NAMES.index("config_io.write_table")


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.errors = [0] * len(NAMES)
        self.rows_written = 0
        self.probe_decompositions = 0
        self.exchange_calls = 0
        self.exchange_repeats = 0
        self._stack = []
        self._seen = set()
        self._sites = None

    def begin_operation(self) -> None:
        self._seen = set()

    def _count_exchange(self, environment, j_hz, tau_ms):
        key = (environment.temperature, environment.gap_frequency, float(j_hz), float(tau_ms))
        self.exchange_calls += 1
        if key in self._seen:
            self.exchange_repeats += 1
        self._seen.add(key)

    def _count_probe(self, *args, **kwargs):
        if any(self.name[span] == _UNITARY for span in self._stack):
            self.probe_decompositions += 1

    def _count_rows(self, rows, *args, **kwargs):
        self.rows_written += len(rows)

    def _wrap(self, index: int, fn, hook=None):
        name, start, end, parent, stack = self.name, self.start, self.end, self.parent, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(*args, **kwargs)
            span = len(start)
            name.append(index)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(span)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[index] += 1
                raise
            finally:
                end[span] = perf_counter()
                stack.pop()

        return traced

    def _binding_sites(self) -> list:
        """Every (module, attribute, original, wrapper) a traced function is bound to."""
        importlib.import_module("mpembasim.cli")
        modules = [
            module
            for key, module in list(sys.modules.items())
            if key == "mpembasim" or key.startswith("mpembasim.")
        ]
        hooks = {
            _EXCHANGE: self._count_exchange,
            _DECOMPOSE: self._count_probe,
            _WRITE: self._count_rows,
        }
        sites = []
        for index, (module_name, function) in enumerate(TARGETS):
            original = getattr(sys.modules[f"mpembasim.{module_name}"], function)
            traced = self._wrap(index, original, hooks.get(index))
            for module in modules:
                for attr, value in vars(module).items():
                    if value is original:
                        sites.append((module, attr, original, traced))
        return sites

    def install(self) -> None:
        """Replace every traced function under every name it is bound to."""
        if self._sites is None:
            self._sites = self._binding_sites()
        for module, attr, _, traced in self._sites:
            setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._sites or ():
            setattr(module, attr, original)

    @property
    def spans(self) -> int:
        return len(self.start)

    def summary(self) -> dict:
        """Per-function calls, self and inclusive seconds, and errors."""
        names = np.frombuffer(self.name, dtype=np.int32) if self.spans else np.zeros(0, int)
        duration = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=duration[nested], minlength=self.spans)
        own = duration - child_time
        n = len(NAMES)
        calls = np.bincount(names, minlength=n)
        self_s = np.bincount(names, weights=own, minlength=n)
        incl_s = np.bincount(names, weights=duration, minlength=n)
        return {
            name: {
                "calls": int(calls[k]),
                "self_s": float(self_s[k]),
                "incl_s": float(incl_s[k]),
                "errors": int(self.errors[k]),
            }
            for k, name in enumerate(NAMES)
        }

    def counters(self) -> dict:
        return {
            "spans": self.spans,
            "rows_written": self.rows_written,
            "probe_decompositions": self.probe_decompositions,
            "exchange_calls": self.exchange_calls,
            "exchange_repeats": self.exchange_repeats,
        }

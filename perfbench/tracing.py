"""Per-layer tracing from outside the program, by wrapping its public calls.

A layer is one module of the package.  Tracer.install replaces every
public function of each layer with a timing wrapper, rebinds each name
under which another module of the package imported that function, and
wraps the public and arithmetic methods of Scalar and SquareMatrix on
the classes themselves.  Calls are aggregated per (layer, name) into a
count, a total time and a self time, never kept as one span per call:
a single verify-all makes hundreds of thousands of scalar operations.

Self time is a call's duration minus the time of the wrapped calls it
made, so the self times of all layers add up to the time spent inside
the outermost wrapped call, cli.main.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from fractions import Fraction
from itertools import chain
from time import perf_counter

LAYERS = ("scalar", "parser", "linalg", "spectral", "cases", "ybe",
          "funceq", "ncplane", "verify", "cli")

TRACED_CLASSES = (("scalar", "Scalar"), ("linalg", "SquareMatrix"))

ARITHMETIC = frozenset({"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                        "__truediv__", "__rtruediv__", "__neg__", "__pow__"})
_METHOD_DUNDERS = ARITHMETIC | {"__init__", "__eq__", "__str__"}


def _bits(value) -> int:
    """Bit size of a coefficient: the larger of numerator and denominator.

    Accepts the shapes a coefficient can take (int, Fraction, a pair or
    an object with re and im parts), so the measure does not depend on
    how the program stores its numbers.
    """
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return abs(value).bit_length()
    if isinstance(value, Fraction):
        return max(abs(value.numerator).bit_length(), value.denominator.bit_length())
    if isinstance(value, (tuple, list)):
        return max(map(_bits, value), default=0)
    if hasattr(value, "re") and hasattr(value, "im"):
        return max(_bits(value.re), _bits(value.im))
    return 0


class Tracer:
    """Aggregated spans for the calls into each layer of one package."""

    def __init__(self, package: str = "braidbax"):
        self.package = package
        self.modules = {layer: sys.modules[f"{package}.{layer}"] for layer in LAYERS}
        self.scalar_type = getattr(self.modules["scalar"], "Scalar")
        # (layer, name) -> [calls, total seconds, self seconds, raised]
        self.calls = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.max_terms = 0
        self.max_coeff_bits = 0
        self._stack = []
        self._patches = []

    # -------------------------------------------------------------- wrapping

    def _wrap(self, layer: str, name: str, fn):
        record = self.calls[(layer, name)]
        stack = self._stack
        scalar_type = self.scalar_type
        tracer = self

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[3] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - children
            if type(result) is scalar_type:
                tracer._measure(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _measure(self, value) -> None:
        num, den = value.num, value.den
        terms = len(num) + len(den)
        if terms > self.max_terms:
            self.max_terms = terms
        for coeff in chain(num.values(), den.values()):
            bits = _bits(coeff)
            if bits > self.max_coeff_bits:
                self.max_coeff_bits = bits

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public call of every layer; undo with uninstall."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        replaced = {}
        for layer, module in self.modules.items():
            for name, obj in list(vars(module).items()):
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    replaced[id(obj)] = self._wrap(layer, name, obj)
        # rebind the functions under every name that refers to them,
        # including names other modules imported with "from . import"
        prefix = self.package + "."
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == self.package or key.startswith(prefix))]
        for module in modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in replaced:
                    self._patch(module, name, replaced[id(obj)])
        for layer, class_name in TRACED_CLASSES:
            cls = getattr(self.modules[layer], class_name)
            for name, attr in list(vars(cls).items()):
                if name.startswith("_") and name not in _METHOD_DUNDERS:
                    continue
                label = f"{class_name}.{name}"
                if isinstance(attr, (classmethod, staticmethod)):
                    self._patch(cls, name, type(attr)(self._wrap(layer, label, attr.__func__)))
                elif inspect.isfunction(attr):
                    self._patch(cls, name, self._wrap(layer, label, attr))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --------------------------------------------------------------- results

    def self_time(self, layer: str, names=None) -> float:
        return sum(rec[2] for (lay, name), rec in self.calls.items()
                   if lay == layer and (names is None or name in names))

    def count(self, layer: str, names) -> int:
        return sum(rec[0] for (lay, name), rec in self.calls.items()
                   if lay == layer and name in names)

    def raised(self, layer: str, names) -> int:
        return sum(rec[3] for (lay, name), rec in self.calls.items()
                   if lay == layer and name in names)

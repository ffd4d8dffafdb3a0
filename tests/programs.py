"""Simulated programs for tests: a bare generator function as a Program."""

from typing import Callable

from repro.cpu.thread import OpGenerator, Program


def as_program(generator_fn: Callable[[], OpGenerator]) -> Program:
    """Wrap a bare generator function into a :class:`Program`."""

    class _FunctionProgram(Program):
        def run(self) -> OpGenerator:
            return generator_fn()

    return _FunctionProgram()

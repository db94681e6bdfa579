"""The package namespace re-exports exactly its modules' public names, each of them has a
reader, and the benchmark's calls into the package still bind."""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

import trottersim
import trottersim.cli
from trottersim import channels, dilation, linalg, liouvillian, mitigation, tomography, trotter

MODULES = (channels, dilation, liouvillian, mitigation, tomography, trotter)


def test_package_names_are_unique():
    assert len(trottersim.__all__) == len(set(trottersim.__all__))


def test_package_all_concatenates_the_module_lists():
    assert trottersim.__all__ == [name for module in MODULES for name in module.__all__]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_each_name_is_its_module_object(module):
    for name in module.__all__:
        assert getattr(trottersim, name) is getattr(module, name), name


# --------------------------------------------------- each public name's reader
#
# A name stays public while something reads it: the package outside the name's own definition,
# a demo, the benchmark under perfbench/, or a public function that returns it. A name that
# only tests read leaves the package, or is listed here with the reason it stays.
ROOT = Path(__file__).resolve().parents[1]
WALKED = {"trottersim": trottersim.__all__, "trottersim.linalg": linalg.__all__}
UNREAD = {
    "dephasing_time": "the pure-dephasing relation that acceptance criterion 7 "
                      "(tests/test_acceptance.py) checks the fig3 pipeline against",
}


def _bound(stmt):
    """The names a module-level statement binds: a def's or class's name, an assignment's."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return {node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)}


def _reads(source, package):
    """The names a file reads, and each module-level function's return-annotation names.

    A read is an attribute taken (ts.global_fit), or a name loaded where the file imports it
    from trottersim or, in a module of the package (package=True), binds it at module level;
    neither in an annotation nor inside the module-level statement that binds the name."""
    tree = ast.parse(source)
    known = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and (node.level or node.module.split(".")[0] == "trottersim")
             for alias in node.names}
    if package:
        known = known.union(*map(_bound, tree.body))
    reads, returns = set(), {}
    for stmt in tree.body:
        annotations = {id(part) for node in ast.walk(stmt)
                       for ann in (getattr(node, "annotation", None), getattr(node, "returns", None))
                       if ann is not None for part in ast.walk(ann)}
        readable = known - _bound(stmt)
        for node in ast.walk(stmt):
            if id(node) in annotations:
                continue
            if isinstance(node, ast.Attribute):
                reads.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.update({node.id} & readable)
        if isinstance(stmt, ast.FunctionDef) and stmt.returns is not None:
            returns[stmt.name] = {n.id for n in ast.walk(stmt.returns) if isinstance(n, ast.Name)}
    return reads, returns


def _read_names():
    """Every name read in src/trottersim, demos/ and perfbench/, and every name that a public
    function's return annotation names."""
    public = {name for names in WALKED.values() for name in names}
    read = set()
    for path in sorted(ROOT.joinpath("src", "trottersim").glob("*.py")):
        reads, returns = _reads(path.read_text(), package=True)
        read |= reads.union(*(names for fn, names in returns.items() if fn in public))
    for path in sorted([*ROOT.joinpath("demos").glob("*.py"),
                        *ROOT.joinpath("perfbench").glob("*.py")]):
        read |= _reads(path.read_text(), package=False)[0]
    return read


def test_reader_walk_skips_own_definitions_annotations_and_foreign_names():
    source = ("from .m import a, b\nfrom os import c\nx = 1\n"
              "def f(y: E) -> R:\n    return f(a, c, x, y.d)\n")
    assert _reads(source, package=True) == ({"a", "d", "x"}, {"f": {"R"}})
    assert _reads(source, package=False) == ({"a", "d"}, {"f": {"R"}})


@pytest.mark.parametrize("module", WALKED)
def test_each_public_name_has_a_reader(module):
    # The allow-list holds exactly the unread names: a stale entry fails as well.
    read = _read_names()
    unread = [name for name in WALKED[module] if name not in read]
    assert unread == [name for name in WALKED[module] if name in UNREAD]


# ------------------------------------------------- the benchmark's calls
#
# perfbench/workloads.py and perfbench/tracer.py call the package as below and
# cannot change with it: one (callable, args, kwargs) per kind of call.
_RATES = trottersim.CanonicalRates(gamma1=0.03, gamma_phi=0.02, omega=0.05)
_SCHEDULE = trottersim.TrotterSchedule(order=1, n_steps=13, dt=3.56)
_NOISE = trottersim.NoiseParams(p_grape=0.01, p_ancilla_decay=0.01)
_RHO0 = np.eye(2) / 2
BENCHMARK_CALLS = {
    "CanonicalRates": (trottersim.CanonicalRates, (),
                       {"gamma1": 0.03, "gamma_phi": 0.02, "omega": 0.05}),
    "TrotterSchedule": (trottersim.TrotterSchedule, (), {"order": 1, "n_steps": 13, "dt": 3.56}),
    "NoiseParams": (trottersim.NoiseParams, (), {"p_grape": 0.01, "p_ancilla_decay": 0.01}),
    "generate_tomography-evolve": (
        trottersim.generate_tomography, (_RATES, 3.56, 13),
        {"evolve": lambda rho0: trottersim.run_schedule(_SCHEDULE, _RATES, rho0)}),
    "generate_tomography-shots": (trottersim.generate_tomography, (_RATES, 3.56, 13),
                                  {"shots": 2000, "seed": 1}),
    "global_fit": (trottersim.global_fit, (trottersim.generate_tomography(_RATES, 3.56, 13),), {}),
    "run_schedule": (trottersim.run_schedule, (_SCHEDULE, _RATES, _RHO0), {}),
    "target_trace": (trottersim.target_trace, (_RATES, _RHO0, 0.5, 100), {}),
    "permutation_scan": (trottersim.permutation_scan, (_RATES,),
                         {"n_steps": 13, "dt": 3.56, "backend": "dilation+noise",
                          "noise": _NOISE}),
    "cli.main": (trottersim.cli.main, (["evolve", "--out", "out"],), {}),
}


@pytest.mark.parametrize("name", BENCHMARK_CALLS)
def test_benchmark_calls_bind(name):
    fn, args, kwargs = BENCHMARK_CALLS[name]
    inspect.signature(fn).bind(*args, **kwargs)


def test_tracer_bound_names_exist():
    # The tracer reads run_schedule's schedule and induced_channel's circuit,
    # noise and adaptive by parameter name, and each gate's kind and theta.
    assert next(iter(inspect.signature(trottersim.run_schedule).parameters)) == "schedule"
    bound = inspect.signature(trottersim.induced_channel).bind(
        trottersim.damping_circuit(0.3), _NOISE)
    bound.apply_defaults()
    assert set(bound.arguments) >= {"circuit", "noise", "adaptive"}
    gate = bound.arguments["circuit"].gates[0]
    assert (gate.kind, gate.theta) == ("ancilla_rx", 0.3)
    assert (_NOISE.p_grape, _NOISE.p_ancilla_decay) == (0.01, 0.01)


@pytest.mark.parametrize("command", [
    "evolve", "trotter", "scan", "dilate-verify", "fit", "mitigate", "converge",
    "reproduce --figure fig2", "reproduce --figure fig3", "reproduce --figure fig4",
])
def test_benchmark_cli_commands_parse(command):
    argv = [*command.split(), "--out", "out", "--seed", "7"]
    args = trottersim.cli._build_parser().parse_args(argv)
    assert (args.out.name, args.seed) == ("out", 7)

"""The package namespace re-exports exactly its modules' public names, and the
benchmark's calls into the package still bind."""

import inspect

import numpy as np
import pytest

import trottersim
import trottersim.cli
from trottersim import channels, dilation, liouvillian, mitigation, tomography, trotter

MODULES = (channels, dilation, liouvillian, mitigation, tomography, trotter)


def test_package_names_are_unique():
    assert len(trottersim.__all__) == len(set(trottersim.__all__))


def test_package_all_concatenates_the_module_lists():
    assert trottersim.__all__ == [name for module in MODULES for name in module.__all__]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_each_name_is_its_module_object(module):
    for name in module.__all__:
        assert getattr(trottersim, name) is getattr(module, name), name


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

"""Value classes: no class factory at import, and the behaviour the dataclasses had.

Every command imports deffuant first; a ``@dataclass`` compiles its generated
methods there, so ``TrialConfig`` (which callers copy with
``dataclasses.replace``) is the one dataclass left.  The other value classes
keep their constructors, messages, immutability, equality and pickling.
"""

import dataclasses
import importlib
import inspect
import pickle
import pkgutil

import numpy as np
import pytest

import deffuant
from deffuant import (Ball, BallSpace, BoundReport, Box, ConfigurationError, ConsensusEstimate,
                      ConstantGraph, ConstantMu, CyclicGraph, EdgeSet, ErdosRenyiGraph, FiredSteps,
                      Interval, ModelParams, OpinionState, PiecewiseGraph, PointCloud, SequenceMu,
                      StoppingTimeRecord, TrialConfig, TrialOutcome, TrialResult, UniformMu,
                      Verdict, complete_edges, path_edges)


def deffuant_classes():
    for info in pkgutil.iter_modules(deffuant.__path__):
        module = importlib.import_module(f"deffuant.{info.name}")
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                yield cls


def test_trial_config_is_the_one_dataclass_deffuant_defines():
    classes = list(deffuant_classes())
    assert len(classes) > 30
    assert [cls.__name__ for cls in classes if dataclasses.is_dataclass(cls)] == ["TrialConfig"]


def test_every_name_deffuant_exports_resolves():
    assert len(deffuant.__all__) == len(set(deffuant.__all__)) == 61
    for name in deffuant.__all__:
        assert getattr(deffuant, name) is not None


def fired_steps():
    x0 = np.zeros((3, 1))
    return FiredSteps(0, 1, x0, np.array([0]), np.array([0]), np.array([1]), np.array([0.5]),
                      np.zeros((1, 2, 1)))


OUTCOME = TrialOutcome(Verdict.CONSENSUS, 12, 1e-7)
ESTIMATE = ConsensusEstimate(p_hat=0.5, ci_low=0.25, ci_high=0.75, n_trials=8, n_undecided=1)

# each class that refuses assignment (every formerly frozen dataclass, and the
# Erdos-Renyi schedule): how to build one, and one of its fields
FROZEN = {
    "ModelParams": (lambda: ModelParams(0.5, 2, "l1"), "epsilon"),
    "ConstantMu": (lambda: ConstantMu(0.5), "value"),
    "SequenceMu": (lambda: SequenceMu((0.5, 0.25)), "values"),
    "UniformMu": (lambda: UniformMu(0.1, 0.5), "low"),
    "ConstantGraph": (lambda: ConstantGraph(4, complete_edges(4)), "edges"),
    "CyclicGraph": (lambda: CyclicGraph(4, (complete_edges(4), path_edges(4))), "members"),
    "PiecewiseGraph": (lambda: PiecewiseGraph(4, ((0, path_edges(4)), (5, complete_edges(4)))),
                       "entries"),
    "ErdosRenyiGraph": (lambda: ErdosRenyiGraph(4, 0.5, seed=3), "seed"),
    "FiredSteps": (fired_steps, "x0"),
    "StoppingTimeRecord": (lambda: StoppingTimeRecord(0.01, 3, 7, 10), "tau_delta"),
    "ConsensusEstimate": (lambda: ESTIMATE, "p_hat"),
    "BoundReport": (lambda: BoundReport(0.2, 0.05, True), "passed"),
    "TrialOutcome": (lambda: OUTCOME, "verdict"),
    "TrialResult": (lambda: TrialResult(OUTCOME, 4, 100), "outcome"),
}


@pytest.mark.parametrize("name", FROZEN)
def test_a_value_class_refuses_assignment_and_deletion(name):
    build, field = FROZEN[name]
    value = build()
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        setattr(value, "other", 1)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) is before


@pytest.mark.parametrize("name", [name for name in FROZEN if name != "FiredSteps"])
def test_a_value_class_compares_and_hashes_by_its_fields(name):
    build, _ = FROZEN[name]
    a, b = build(), build()
    assert a == b and not a != b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert a != object()


def test_model_params_equality_and_hash_hold():
    params = ModelParams(epsilon=0.5, dimension=2, norm="l1")
    assert params == ModelParams(0.5, 2, "l1") and hash(params) == hash(ModelParams(0.5, 2, "l1"))
    assert ModelParams(0.5) == ModelParams(0.5, 1, "euclidean")
    assert params != ModelParams(0.5, 2) and params != ModelParams(0.25, 2, "l1")
    assert len({params, ModelParams(0.5, 2, "l1"), ModelParams(0.5)}) == 2
    assert repr(params) == "ModelParams(epsilon=0.5, dimension=2, norm='l1')"


def test_the_classes_of_one_hierarchy_are_never_equal():
    assert ConstantMu(0.5) != SequenceMu((0.5,))
    assert ConstantGraph(4, complete_edges(4)) != CyclicGraph(4, (complete_edges(4),))


@pytest.mark.parametrize("value", [
    OUTCOME,
    TrialOutcome(Verdict.UNDECIDED, None, 0.25),
    TrialResult(OUTCOME, 4, 100),
    TrialResult(TrialOutcome(Verdict.DISSENSUS, 7, 0.5), None, 7),
    ESTIMATE,
], ids=["outcome", "undecided-outcome", "result", "dissensus-result", "estimate"])
def test_a_record_sent_through_the_fork_pipe_comes_back_equal(value):
    back = pickle.loads(pickle.dumps(value))
    assert back == value and type(back) is type(value) and hash(back) == hash(value)
    assert repr(back) == repr(value)


def test_a_pickled_schedule_keeps_its_fields_and_validates_again():
    schedule = PiecewiseGraph(4, ((0, path_edges(4)), (5, complete_edges(4))))
    back = pickle.loads(pickle.dumps(schedule))
    assert back == schedule and back.edges_at(7) == complete_edges(4)
    params = pickle.loads(pickle.dumps(ModelParams(0.5, 2)))
    assert params == ModelParams(0.5, 2)


def test_records_show_their_fields():
    assert repr(ConstantMu(0.5)) == "ConstantMu(value=0.5)"
    assert repr(OUTCOME) == ("TrialOutcome(verdict=<Verdict.CONSENSUS: 'consensus'>, "
                             "decided_at=12, final_diameter=1e-07)")
    assert repr(BoundReport(None, None, None)) == ("BoundReport(bound=None, margin=None, "
                                                   "passed=None, tested_bound=None)")
    assert repr(Ball([0.0], 1.0)) == "Ball(center=array([0.]), radius=1.0)"
    assert repr(ErdosRenyiGraph(4, 0.5, seed=3)) == "ErdosRenyiGraph(n=4, p=0.5, seed=3)"


def test_mutable_records_keep_accepting_assignment():
    box = Interval(0.0, 1.0)
    box.upper = np.array([2.0])
    assert box.diameter() == 2.0
    state = OpinionState(0, [0.25, 0.5])
    assert state.opinions.shape == (2, 1) and state.time == 0


def test_trial_config_is_still_copied_by_dataclasses_replace():
    config = TrialConfig(n=4, params=ModelParams(0.5), space=Interval(0.0, 1.0),
                         graph_schedule=ConstantGraph(4, complete_edges(4)),
                         mu_schedule=ConstantMu(0.5), horizon=10)
    copy = dataclasses.replace(config, trial_index=3)
    assert (copy.trial_index, copy.n, copy.params) == (3, 4, config.params)
    with pytest.raises(AttributeError):
        copy.horizon = 5


REJECTED = [
    ("ModelParams-epsilon", lambda: ModelParams(0.0), "epsilon must be positive, got 0.0"),
    ("ModelParams-dimension-float", lambda: ModelParams(0.5, 1.5),
     "dimension must be a positive integer, got 1.5"),
    ("ModelParams-dimension-0", lambda: ModelParams(0.5, 0),
     "dimension must be a positive integer, got 0"),
    ("ModelParams-norm", lambda: ModelParams(0.5, 1, "l3"),
     "unknown norm 'l3', expected one of ('euclidean', 'l1', 'linf')"),
    ("ConstantMu", lambda: ConstantMu(0.75), "mu must lie in [0, 1/2], got 0.75"),
    ("SequenceMu-empty", lambda: SequenceMu(()), "SequenceMu needs at least one value"),
    ("SequenceMu-value", lambda: SequenceMu((0.5, -0.1)), "mu must lie in [0, 1/2], got -0.1"),
    ("UniformMu", lambda: UniformMu(0.4, 0.2), "need low <= high, got [0.4, 0.2]"),
    ("Ball", lambda: Ball([0.0], -1.0), "radius must be >= 0, got -1.0"),
    ("Box-lengths", lambda: Box([0.0], [1.0, 2.0]), "box bounds must have equal length"),
    ("Box-order", lambda: Box([1.0], [0.0]),
     "box needs lower < upper and a finite side on every axis, got [1.] and [0.]"),
    ("BallSpace-radius", lambda: BallSpace([0.0], 0.0),
     "ball needs radius > 0 and a finite center +/- radius, got [0.] and 0.0"),
    ("BallSpace-norm", lambda: BallSpace([0.0], 1.0, "l3"),
     "unknown norm 'l3', expected one of ('euclidean', 'l1', 'linf')"),
    ("PointCloud", lambda: PointCloud(np.empty((0, 2))),
     "point cloud needs a finite (n, d) array with n >= 1"),
    ("OpinionState-shape", lambda: OpinionState(0, np.zeros((2, 2, 2))),
     "opinions must be an (n, d) array, got shape (2, 2, 2)"),
    ("OpinionState-finite", lambda: OpinionState(0, [0.0, np.inf]), "opinions must be finite"),
    ("ConstantGraph", lambda: ConstantGraph(3, EdgeSet([(0, 3)])),
     "edge (0, 3) out of range for n=3"),
    ("CyclicGraph-empty", lambda: CyclicGraph(3, ()), "cyclic schedule needs at least one member"),
    ("CyclicGraph-member", lambda: CyclicGraph(3, (complete_edges(3), EdgeSet([(1, 4)]))),
     "edge (1, 4) out of range for n=3"),
    ("PiecewiseGraph-start", lambda: PiecewiseGraph(3, ((1, complete_edges(3)),)),
     "piecewise schedule must define step 0"),
    ("PiecewiseGraph-order",
     lambda: PiecewiseGraph(3, ((0, complete_edges(3)), (0, path_edges(3)))),
     "piecewise schedule steps must be strictly increasing"),
    ("StoppingTimeRecord", lambda: StoppingTimeRecord(0.01, 8, 7, 10),
     "stopping times out of order: tau=8, T=7, horizon=10"),
    ("ConsensusEstimate", lambda: ConsensusEstimate(0.5, 0.6, 0.9, 10, 0),
     "estimate out of order: 0.6, 0.5, 0.9"),
]


@pytest.mark.parametrize("build, message", [case[1:] for case in REJECTED],
                         ids=[case[0] for case in REJECTED])
def test_a_rejected_input_keeps_its_message(build, message):
    with pytest.raises(ConfigurationError) as info:
        build()
    assert str(info.value) == message

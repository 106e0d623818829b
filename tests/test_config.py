"""The field rules of the config dataclasses, driven by their metadata.

Every field's declaration carries its type (annotation) and its allowed
values and bounds (metadata); these properties draw in-range values from
that declaration and check the values just past it.
"""

import json
import math
from dataclasses import asdict, fields, is_dataclass

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from softalign import config
from softalign.errors import DegenerateTargets, SpecInvalid
from softalign.objectives import LossConfig
from softalign.synthgen import SynthSpec
from softalign.trainer import TrainConfig

ERRORS = {SynthSpec: SpecInvalid, TrainConfig: ValueError, LossConfig: ValueError}


def _in_range(f, kind):
    """Values of ``kind`` that satisfy the field's choices and bounds."""
    md = f.metadata
    if "choices" in md:
        return st.sampled_from(md["choices"])
    if kind is bool:
        return st.booleans()
    if kind is int:  # capped where unbounded, so float() of it is exact
        return st.integers(
            min_value=md["ge"] if "ge" in md else md["gt"] + 1,
            max_value=md["le"] if "le" in md else 2**53)
    if kind is float:
        return st.floats(min_value=md.get("ge", md.get("gt")),
                         max_value=md.get("le", md.get("lt")),
                         exclude_min="gt" in md, exclude_max="lt" in md,
                         allow_nan=False, allow_infinity=False)
    assert is_dataclass(kind), kind
    return _kwargs(kind).map(lambda kw: kind(**kw))


def _kwargs(cls):
    types = config.field_types(cls)
    parts = {}
    for f in fields(cls):
        kind, optional = types[f.name]
        values = _in_range(f, kind)
        parts[f.name] = st.none() | values if optional else values
    strategy = st.fixed_dictionaries(parts)
    if cls is SynthSpec:  # the one cross-field rule of the spec
        strategy = strategy.filter(
            lambda kw: kw["concepts_per_sample"] <= kw["n_concepts"])
    return strategy


def _build(cls, kwargs):
    try:
        return cls(**kwargs)
    except DegenerateTargets:  # the loss variant's feasibility rule
        reject()


def _past_bounds(f, kind):
    """The values just outside each of the field's bounds."""
    step = ((lambda b, d: b + d) if kind is int
            else (lambda b, d: math.nextafter(b, d * math.inf)))
    md = f.metadata
    out = []
    if "ge" in md:
        out.append(step(md["ge"], -1))
    if "gt" in md:
        out.append(kind(md["gt"]))
    if "le" in md:
        out.append(step(md["le"], 1))
    if "lt" in md:
        out.append(kind(md["lt"]))
    return out


def _bad_values(f, kind, optional, valid):
    """Values the field's rule must reject, given one it accepts."""
    bad = [] if optional else [None]
    if kind is int:
        bad += [float(valid), str(valid), True, math.nan]
    elif kind is float:
        bad += [str(valid), True, math.nan, math.inf, -math.inf, 10**400]
    elif kind is bool:
        bad += [str(valid).lower(), int(valid)]
    elif kind is str:
        bad += [1]
    else:
        bad += [asdict(valid)]
    if "choices" in f.metadata:
        bad.append(f"{valid}_")
    return bad + _past_bounds(f, kind)


@pytest.mark.parametrize("cls", list(ERRORS), ids=lambda c: c.__name__)
@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data())
def test_in_range_values_build_and_round_trip(cls, data):
    cfg = _build(cls, data.draw(_kwargs(cls)))
    text = json.dumps(asdict(cfg))
    assert cls.from_dict(json.loads(text)) == cfg


@pytest.mark.parametrize("cls", list(ERRORS), ids=lambda c: c.__name__)
@settings(derandomize=True, deadline=None, max_examples=50)
@given(data=st.data())
def test_values_past_each_rule_are_rejected(cls, data):
    kwargs = data.draw(_kwargs(cls))
    _build(cls, kwargs)
    types = config.field_types(cls)
    for f in fields(cls):
        kind, optional = types[f.name]
        valid = kwargs[f.name]
        if valid is None:
            valid = data.draw(_in_range(f, kind))
        for bad in _bad_values(f, kind, optional, valid):
            with pytest.raises(ERRORS[cls], match=rf"^{f.name} must be "):
                cls(**{**kwargs, f.name: bad})


def test_numeric_types_that_fit_are_accepted():
    assert LossConfig(beta=1).beta == 1
    cfg = TrainConfig(seed=np.int64(3), peak_lr=np.float64(1e-3),
                      max_steps=np.int32(5))
    assert (cfg.seed, cfg.peak_lr, cfg.max_steps) == (3, 1e-3, 5)
    assert SynthSpec(n_samples=np.int64(10), seed=np.uint8(1)).n_samples == 10


def test_spec_cross_field_rule():
    with pytest.raises(SpecInvalid, match="n_concepts"):
        SynthSpec(n_concepts=2, concepts_per_sample=3)


def test_field_types_unwrap_optional():
    types = config.field_types(TrainConfig)
    assert types["max_steps"] == (int, True)
    assert types["grad_clip"] == (float, True)
    assert types["batch_size"] == (int, False)
    assert types["loss"] == (LossConfig, False)


def test_from_dict_builds_nested_configs():
    # a mapping for a config-typed field goes through that class's from_dict
    cfg = config.from_dict(TrainConfig, {"epochs": 2, "loss": {"beta": 0.5}})
    assert cfg == TrainConfig(epochs=2, loss=LossConfig(beta=0.5))
    assert config.from_dict(TrainConfig, {"loss": cfg.loss}).loss is cfg.loss
    with pytest.raises(ValueError, match=r"^unknown LossConfig keys: \['bogus'\]"):
        config.from_dict(TrainConfig, {"loss": {"bogus": 1}})
    with pytest.raises(ValueError, match="^loss must be LossConfig, got"):
        config.from_dict(TrainConfig, {"loss": [("beta", 0.5)]})

"""Docstring coverage gate for the public API.

Every exported name of the campaign subsystem, the mw
driver/worker/task layer and the shared socket stack
(``repro.wire``) must carry a docstring, and so must
the public methods and properties those classes define.  This is the CI
check behind the documentation pass: adding an undocumented public name
to these modules fails the build.
"""

import importlib
import inspect

import pytest

#: Modules whose public surface must be fully documented.
MODULES = [
    "repro.campaign",
    "repro.campaign.aggregate",
    "repro.campaign.backends",
    "repro.campaign.backends.base",
    "repro.campaign.backends.netstore",
    "repro.campaign.backends.sqlite",
    "repro.campaign.execution",
    "repro.campaign.progress",
    "repro.campaign.runner",
    "repro.campaign.scheduler",
    "repro.campaign.spec",
    "repro.campaign.store",
    "repro.core.async_driver",
    "repro.core.base",
    "repro.core.pso",
    "repro.core.simplex",
    "repro.mw.codec",
    "repro.mw.driver",
    "repro.mw.messages",
    "repro.mw.task",
    "repro.mw.tcp",
    "repro.mw.transport",
    "repro.mw.worker",
    "repro.telemetry",
    "repro.telemetry.metrics",
    "repro.telemetry.trace",
    "repro.wire",
]


def _public_objects(module):
    """Exported classes and functions defined in (or re-exported by) repro."""
    names = getattr(module, "__all__", None)
    defined_here_only = names is None
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in sorted(names):
        obj = getattr(module, name)
        if inspect.ismodule(obj):
            continue
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue  # constants need no docstring
        if not getattr(obj, "__module__", "").startswith("repro"):
            continue  # re-exported third-party objects (numpy etc.)
        if defined_here_only and obj.__module__ != module.__name__:
            continue  # plain imports, not this module's API surface
        yield name, obj


def _class_members(cls):
    """Public methods/properties defined directly on ``cls``."""
    for name, member in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(member, property):
            yield name, member.fget
        elif isinstance(member, (classmethod, staticmethod)):
            yield name, member.__func__
        elif inspect.isfunction(member):
            yield name, member


def _missing_in(module):
    missing = []
    if not (module.__doc__ or "").strip():
        missing.append(module.__name__)
    for name, obj in _public_objects(module):
        if not (obj.__doc__ or "").strip():
            missing.append(f"{module.__name__}.{name}")
        if inspect.isclass(obj):
            for mname, fn in _class_members(obj):
                if fn is None or not (fn.__doc__ or "").strip():
                    missing.append(f"{module.__name__}.{name}.{mname}")
    return missing


@pytest.mark.parametrize("module_name", MODULES)
def test_public_api_is_documented(module_name):
    module = importlib.import_module(module_name)
    missing = _missing_in(module)
    assert not missing, (
        "missing docstrings on exported names:\n  " + "\n  ".join(missing)
    )

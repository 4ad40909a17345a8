"""The benchmark's tracer finds every function and method it wraps.

``perfbench/tracing.py`` names its targets by module and attribute, so a
rename or a deletion in ``levibranch`` would break ``--trace 1`` runs only.
"""

import os
import sys

import levibranch  # noqa: F401  (imports every module the tracer wraps)

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _owner(module, attr):
    owner = sys.modules[f"levibranch.{module}"]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def test_every_span_target_resolves_and_is_restored():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracing
    finally:
        sys.path.remove(PERFBENCH)
    targets = [(name, *_owner(module, attr)) for name, module, attr, _ in tracing.SPANS]
    missing = [name for name, owner, attr in targets if attr not in vars(owner)]
    assert not missing, missing
    before = {name: vars(owner)[attr] for name, owner, attr in targets}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for name, owner, attr in targets:
            assert vars(owner)[attr] is not before[name], name
    finally:
        tracer.uninstall()
    for name, owner, attr in targets:
        assert vars(owner)[attr] is before[name], name

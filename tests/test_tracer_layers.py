"""Every layer the benchmark tracer wraps must exist in nimlab, so that a
rename shows up here rather than only in a traced benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.LAYERS


def test_every_tracer_layer_resolves():
    layers = _layers()
    assert layers
    for (modname, attr), kind in layers.items():
        mod = importlib.import_module(f"nimlab.{modname}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            fn = vars(getattr(mod, cls_name)).get(meth)
        else:
            fn = getattr(mod, attr, None)
        assert callable(fn), f"{modname}.{attr}"
        assert kind in ("span", "gen", "count"), f"{modname}.{attr}"
        if kind == "gen":
            assert inspect.isgeneratorfunction(fn), f"{modname}.{attr}"

"""Source hygiene checks over the package modules."""

import ast
import dataclasses
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import ontozsl
from ontozsl import textwalk
from ontozsl.harness import gen_synthetic
from ontozsl.pipeline import RunConfig, run_pipeline

MODULES = sorted(p for p in Path(ontozsl.__file__).parent.glob("*.py") if p.name != "__init__.py")
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported.items() if name not in used}
    assert not unused, f"{path.name}: imported but never used: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_private_name_of_another(path):
    tree = ast.parse(path.read_text())
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("ontozsl"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"{path.name} imports private names: {private}"


def _load_perfbench(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_function_the_benchmark_patches_exists(monkeypatch):
    """The tracer patches ``ontozsl.<module>.<attribute>``; a missing one crashes the benchmark."""
    tracing = _load_perfbench("tracing", monkeypatch)
    for module, attribute, *_name in (*tracing.SPANS, *tracing.COUNTED):
        assert callable(getattr(importlib.import_module(f"ontozsl.{module}"), attribute, None)), (
            f"ontozsl.{module}.{attribute}"
        )


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda p: p.name)
def test_every_name_the_benchmark_takes_from_the_package_exists(path):
    """``from ontozsl[.m] import x`` resolves, and so does each ``x.attr`` read off an imported module."""
    tree = ast.parse(path.read_text())
    modules = {}
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ontozsl"):
            source = importlib.import_module(node.module)
            for alias in node.names:
                value = getattr(source, alias.name, None)
                if value is None:
                    missing.append(f"{node.module}.{alias.name}")
                elif isinstance(value, types.ModuleType):
                    modules[alias.asname or alias.name] = value
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            if not hasattr(modules[node.value.id], node.attr):
                missing.append(f"{modules[node.value.id].__name__}.{node.attr}")
    assert not missing, f"{path.name} uses names the package no longer has: {missing}"


def _workload_names() -> list[str]:
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    return [node.args[0].value for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Workload"]


@pytest.mark.parametrize("name", _workload_names())
def test_every_benchmark_workload_runs_on_the_settings_it_reads(tmp_path, monkeypatch, name):
    """The config keys and report fields the benchmark reads at run time, beyond the names it imports."""
    workloads = _load_perfbench("workloads", monkeypatch)
    workload = workloads.WORKLOADS[name]
    RunConfig(**workload.overrides)
    # worker.layer_metrics reads both
    assert {"w2v_epochs", "w2v_window"} <= {f.name for f in dataclasses.fields(RunConfig)}
    workloads.write_inputs(workload, 0, tmp_path, tiny=True)
    settings = json.loads((tmp_path / "settings.json").read_text())
    report = run_pipeline(RunConfig(**settings["config"]))
    assert len(report.w2v_losses) > 0  # worker.layer_metrics reads the last one


def test_name_tokens_takes_a_name_and_an_ontology():
    # the benchmark counts the corpus tokens that encode a label this way
    ontology = gen_synthetic(2, 1, 1).ontology
    assert textwalk.name_tokens("Class_00", ontology) == ["class", "00"]
    assert textwalk.name_tokens("hasTrait", ontology) == ["has", "trait"]


def test_importing_the_package_loads_no_process_machinery():
    """The benchmark's ``setup_s`` times ``import ontozsl``, which should not pay for process pools."""
    heavy = ["multiprocessing", "concurrent.futures", "subprocess"]
    code = f"import sys, ontozsl; print([m for m in {heavy!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(Path(ontozsl.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


# The inputs that are read whole: each is parsed by a reader that reports columns, or is tiny.
WHOLE_TEXT_READERS = {"parse_ontology": "ontology", "read_normalized": "normalized axioms", "parse_config": "config"}


@pytest.mark.parametrize("name", ["pipeline.py", "cli.py"])
def test_only_the_ontology_the_normalized_axioms_and_the_config_are_read_whole(name):
    """Every table streams through ``file_lines``; ``read_file`` text goes to three readers only."""
    tree = ast.parse((Path(ontozsl.__file__).parent / name).read_text())

    def called(node) -> str | None:
        if isinstance(node, ast.Call):
            func = node.func
            return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return None

    reads = [node for node in ast.walk(tree) if called(node) == "read_file"]
    allowed = []
    for node in ast.walk(tree):
        reader = called(node)
        for arg in node.args if reader else []:
            if called(arg) == "read_file":
                what = arg.args[1].value if isinstance(arg.args[1], ast.Constant) else None
                assert WHOLE_TEXT_READERS.get(reader) == what, (
                    f"{name} line {arg.lineno}: read_file({what!r}) text goes to {reader}"
                )
                allowed.append(arg)
    assert reads, f"{name} reads no file whole"
    assert len(allowed) == len(reads), f"{name}: a read_file result is not passed straight to a reader"

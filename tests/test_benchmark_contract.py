"""The library names, attributes and options that perfbench/ reads.

perfbench/tracer.py wraps library functions by name and records a name it
cannot find as absent instead of failing, so a rename or a deletion in the
library would silently blind the traced run.  perfbench/child.py and
perfbench/make_reference.py import from hypmono and read TraceTable
attributes, and the workloads call the CLI with fixed argv.  Each of these
is read here from the perfbench sources, which this test does not change.
"""

import ast
import functools
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from hypmono import CycNumber, build_field, exp_sums
from hypmono.cli import build_parser

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# the bracket wrappers that kubert.verify_brackets replaced; the traced
# run lists them as absent
GONE = {("kubert", "verify_bracket_corollaries"), ("kubert", "verify_sharp_inequality")}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


def _tree(name):
    return ast.parse((PERFBENCH / f"{name}.py").read_text())


@pytest.mark.parametrize("modname, path", [
    (t[0], t[1]) for t in tracer.TARGETS if (t[0], t[1]) not in GONE])
def test_tracer_targets_resolve(modname, path):
    # the lookup of Tracer.install: the attribute must be the owner's own
    owner = importlib.import_module(f"hypmono.{modname}")
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    assert attr in vars(owner)


def test_gone_targets_are_gone():
    targets = {(t[0], t[1]) for t in tracer.TARGETS}
    for modname, attr in GONE:
        assert (modname, attr) in targets
        assert not hasattr(importlib.import_module(f"hypmono.{modname}"), attr)


def _hypmono_imports(tree):
    """(module, name) of each `from hypmono... import name`, (module, None)
    of each `import hypmono...`, and the module attributes read through a
    name that such an import binds."""
    out, bound = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hypmono":
            for alias in node.names:
                out.append((node.module, alias.name))
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            out += [(a.name, None) for a in node.names if a.name.split(".")[0] == "hypmono"]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            out.append((bound[node.value.id], node.attr))
    return out


@pytest.mark.parametrize("source", ["child", "make_reference"])
def test_perfbench_imports_resolve(source):
    imports = _hypmono_imports(_tree(source))
    assert imports
    for module, name in imports:
        owner = importlib.import_module(module)
        if name is None:
            continue
        if not hasattr(owner, name):  # a submodule not imported by the package
            importlib.import_module(f"{module}.{name}")


def _attribute_chains(tree, root):
    """Each chain of attributes read off the name root, e.g. ('field', 'q')
    for root.field.q, longest chains only."""
    chains, inner = set(), set()
    for node in ast.walk(tree):
        chain, cur = [], node
        while isinstance(cur, ast.Attribute):
            chain.append(cur.attr)
            cur = cur.value
        if chain and isinstance(cur, ast.Name) and cur.id == root:
            chains.add(tuple(reversed(chain)))
            inner |= {tuple(reversed(chain[i:])) for i in range(1, len(chain))}
    return chains - inner


@pytest.fixture(scope="module")
def tables():
    out = {}
    for family, k in (("3x13", 4), ("28x", 2)):
        fam = exp_sums.FAMILIES[family]
        field = build_field(fam.p, k)
        for mode in ("exact", "float"):
            out[family, mode] = exp_sums.trace_table_all(
                field, fam.kind, A=fam.A, B=fam.B, mode=mode)
    return out


def test_table_info_reads_trace_tables(tables):
    for (family, mode), t in tables.items():
        info = tracer._table_info((), {}, t)
        assert info["label"] == f"{family}_q{t.field.q}.{mode}"
        assert (info["p"], info["mode"]) == (exp_sums.FAMILIES[family].p, mode)
        assert info["float_err"] == t.float_err and (mode == "float") == (t.float_err > 0)


def test_make_reference_reads_trace_tables(tables):
    tree = _tree("make_reference")
    # trace_float reads a float table as t and the values of an exact one
    chains = _attribute_chains(tree, "t")
    assert ("float_values",) in chains and ("field", "q") in chains
    for (family, mode), t in tables.items():
        for chain in chains:
            functools.reduce(getattr, chain, t)
        if mode == "exact":
            values = t.exact_values
            assert len(values) == len(t) and isinstance(values[0], CycNumber)
            assert isinstance(values[0].to_complex(), complex)
    for chain in _attribute_chains(tree, "fam"):
        functools.reduce(getattr, chain, exp_sums.FAMILIES["3x13"])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_argv_parses(workload, tmp_path):
    parser = build_parser()
    for spec, _ in workloads.jobs(workload, 1, tmp_path):
        if spec["kind"] == "cli":
            parser.parse_args(spec["argv"])
    for family, p in workloads.FAMILY_P.items():
        assert exp_sums.FAMILIES[family].p == p

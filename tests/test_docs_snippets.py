"""The documentation's code snippets actually work."""

import os
import re

from repro.lang import compile_program

DOCS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "docs")


def _dsl_blocks(path):
    """Extract the DSL sources embedded in a markdown file."""
    with open(path) as handle:
        text = handle.read()
    blocks = re.findall(r"```(?:text|python)?\n(.*?)```", text, re.DOTALL)
    sources = []
    for block in blocks:
        match = re.search(r"(?m)^program \w+;[\s\S]*", block)
        if match is None or "on " not in match.group(0):
            continue
        sources.append(match.group(0).rsplit('"""', 1)[0])
    return sources


def test_tutorial_dsl_compiles():
    sources = _dsl_blocks(os.path.join(DOCS, "TUTORIAL.md"))
    assert sources, "tutorial lost its DSL example"
    for source in sources:
        program = compile_program(source)
        assert program.handled_events()


def test_language_reference_example_compiles():
    sources = _dsl_blocks(os.path.join(DOCS, "LANGUAGE.md"))
    assert sources, "language reference lost its example"
    for source in sources:
        program = compile_program(source)
        assert program.name == "microburst"
        assert program.state_bits() == 1024 * 32


def test_readme_quickstart_class_compiles():
    """The README's native-model snippet is importable-quality code."""
    readme = os.path.join(os.path.dirname(DOCS), "README.md")
    with open(readme) as handle:
        text = handle.read()
    match = re.search(r"```python\n(.*?)```", text, re.DOTALL)
    assert match, "README lost its quickstart snippet"
    snippet = match.group(1).replace("...", "pass")
    namespace = {}
    exec(compile(snippet, "README.md", "exec"), namespace)  # noqa: S102
    program_cls = namespace["Microburst"]
    program = program_cls()
    assert program.handled_events()
    # And the snippet actually loaded it onto a switch.
    assert "switch" in namespace
    assert namespace["switch"].program is program or namespace[
        "switch"
    ].program.__class__ is program_cls


def test_state_checkpoint_snippet_runs(tmp_path):
    """docs/STATE.md's whole-simulator checkpoint round trip executes."""
    from repro.sim.kernel import Simulator

    with open(os.path.join(DOCS, "STATE.md")) as handle:
        text = handle.read()
    match = re.search(
        r"## Whole-simulator checkpoints\s*```python\n(.*?)```", text, re.DOTALL
    )
    assert match, "STATE.md lost its checkpoint snippet"
    path = str(tmp_path / "run.ckpt")
    snippet = match.group(1).replace('"run.ckpt"', repr(path))
    sim = Simulator()
    sim.call_at(5_000, int)
    sim.run(until_ps=1_000)
    namespace = {"Simulator": Simulator, "sim": sim, "experiment": {"seed": 7}}
    exec(compile(snippet, "STATE.md", "exec"), namespace)  # noqa: S102
    restored = namespace["sim"]
    assert restored is not sim
    assert (restored.now_ps, restored.pending_events) == (1_000, 1)
    assert namespace["experiment"] == {"seed": 7}
    assert namespace["header"]["label"] == "halfway"

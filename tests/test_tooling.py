"""The README's library example and the benchmark's hooks stay runnable."""

import contextlib
import io
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_readme_library_example_runs():
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    (block,) = re.findall(r"## Library\n\n```python\n(.*?)```", readme, re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[0] == "0.0005282132768118696"
    assert lines[1].startswith("CriterionReport(criterion='RHO_FP'")


def test_benchmark_tracer_finds_every_attribute_it_wraps():
    # the traced benchmark wraps fpsq functions by module attribute;
    # installing it fails if one of them has been renamed or deleted
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import spans; spans.Tracer().install()")
    subprocess.run([sys.executable, "-c", code, os.path.join(ROOT, "src"),
                    os.path.join(ROOT, "perfbench")], check=True, cwd=ROOT, timeout=120)

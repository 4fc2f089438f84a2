"""The README's library quick start runs and prints what its comments promise."""

from pathlib import Path

from conftest import run_fresh

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    """The python block under the README's "Library quick start" heading."""
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_quick_start_prints_what_its_comments_promise():
    code = quick_start()
    # the first word of the comment on each print line is its promised output
    promised = [line.split("#", 1)[1].split()[0] for line in code.splitlines()
                if line.startswith("print(") and "#" in line]
    assert promised == ["5.0", "True"]
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr
    assert [line.split()[0] for line in proc.stdout.splitlines()] == promised

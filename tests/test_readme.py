import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs(capsys):
    # the README's quick start must keep working as the package's exports change
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README}:quick-start", "exec"), {})
    value, method, elapsed = capsys.readouterr().out.split()
    assert 0.0 < float(value) < 1.0 and float(elapsed) >= 0.0
    assert method

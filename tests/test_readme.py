import pathlib
import re

from lagstate.cli import CSV_HEADER

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    # The example's asserts are its checks; it must run against the API as is.
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, str(README), "exec"), {})


def test_readme_report_columns_match_csv_header():
    text = README.read_text(encoding="utf-8")
    listed = re.search(r"Report columns: (.*?)\.\n", text, re.DOTALL).group(1)
    columns = [c.strip(" `\n") for c in listed.split(",")]
    assert columns == CSV_HEADER.split(",")

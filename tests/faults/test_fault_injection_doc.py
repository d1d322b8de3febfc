"""docs/fault_injection.md runs as written: its python blocks execute in
order as one session, and the event table it shows is what they print."""

import contextlib
import io
import pathlib
import re

DOC = pathlib.Path(__file__).resolve().parents[2] / "docs" / "fault_injection.md"


def _blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", DOC.read_text(), flags=re.S)


def test_python_blocks_run_in_order_and_match_the_prose():
    namespace = {}
    output = io.StringIO()
    with contextlib.redirect_stdout(output):
        for block in _blocks("python"):
            exec(compile(block, str(DOC), "exec"), namespace)
    result = namespace["result"]
    assert "TrngState.TOTAL_FAILURE 2560" in output.getvalue()
    assert result.first_alarm_position == 3072
    assert result.emitted_after_first_alarm == 1024
    (table,) = [block for block in _blocks("text") if block.startswith("t [s]")]
    assert table.rstrip("\n") == result.events.render()

"""Every function perfbench wraps in a traced run must exist in the program.

perfbench reports a wrap target the program lacks as absent and leaves out
the metrics that need it, so a renamed or deleted name would otherwise show
up only as missing benchmark metrics.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402


def test_every_traced_name_resolves():
    assert tracing.Tracer().absent == []

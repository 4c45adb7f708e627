"""Every source file parses under the oldest grammar the package supports.

pyproject.toml declares requires-python >= 3.10, so syntax that a newer
interpreter accepts and 3.10 rejects (except*, for one) would break the
package there while every test passes here.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_as_python_3_10():
    sources = [path for folder in ("src/limoctrl", "tests", "bench")
               for path in sorted((ROOT / folder).glob("*.py"))]
    assert {path.parent.name for path in sources} == {"limoctrl", "tests", "bench"}
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=(3, 10))

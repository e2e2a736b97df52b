import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))


def _pythonpath_package():
    """The ``etsbell`` directory of the first PYTHONPATH entry that holds
    one, or None."""
    for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep):
        package = Path(entry) / "etsbell"
        if entry and (package / "__init__.py").is_file():
            return package.resolve()
    return None


# pyproject.toml puts this tree's src first on sys.path, so a run from this
# tree with PYTHONPATH pointing at another copy would test this tree.
import etsbell  # noqa: E402

_wanted = _pythonpath_package()
_imported = Path(etsbell.__file__).resolve().parent
if _wanted is not None and _wanted != _imported:
    raise pytest.UsageError(
        f"PYTHONPATH names etsbell at {_wanted}, but the tests imported it from "
        f"{_imported}; run pytest from the tree under test")

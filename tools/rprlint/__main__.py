"""``python tools/rprlint [paths ...]`` dispatches to :mod:`rprlint.cli`.

Running the directory puts the directory itself first on ``sys.path``;
its parent (``tools/``) takes that place, so the package imports as
``rprlint``.
"""

import sys
from pathlib import Path

sys.path[0] = str(Path(__file__).resolve().parent.parent)

from rprlint.cli import main  # noqa: E402 - needs the path set above

sys.exit(main())

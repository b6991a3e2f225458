"""``python -m bipcayley``: run ``bipcayley.cli.main``, exit with its code."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())

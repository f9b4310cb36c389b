"""`python -m octavia`: the command-line front end of the `octavia`
script, for a checkout that is on the path but not installed."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())

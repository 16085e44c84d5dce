from .frontend.cli import entry

entry()

"""One module per subcommand, each with ``build(cfg) -> Report``.  The
front end in ``gammaflag.cli`` imports a command's module only when it
dispatches that command, so a process compiles no other command's code."""

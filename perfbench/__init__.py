"""Process-level benchmark of real ``repro`` commands (see README.md)."""

"""End-to-end benchmark of the Chisel serving stack (see README.md)."""

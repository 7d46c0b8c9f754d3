"""End-to-end benchmark of the proxy store over a real loopback KV server."""

"""Serve one fixed byte stream to the first client, then close.

    python3 perfbench/badsender.py FILE

Prints the port it listens on (127.0.0.1, chosen by the OS) as its first
line, sends FILE's bytes to the first connection, closes it and exits. The
stream-record workload points the recorder at it to feed a malformed line.
"""

import socket
import sys


def main() -> int:
    with open(sys.argv[1], "rb") as fh:
        payload = fh.read()
    with socket.create_server(("127.0.0.1", 0)) as listener:
        listener.settimeout(30.0)
        print(listener.getsockname()[1], flush=True)
        conn, _ = listener.accept()
        with conn:
            try:
                conn.sendall(payload)
            except OSError:
                pass  # the recorder may hang up as soon as it sees the bad line
    return 0


if __name__ == "__main__":
    sys.exit(main())

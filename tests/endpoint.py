"""The tests' one LM completions endpoint: a threaded HTTP server on a free
localhost port. ``python tests/endpoint.py`` prints its port and answers
echo logprobs until SIGTERM; it needs only the standard library."""

import contextlib
import json
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


def echo_logprobs(payload):
    words = payload["prompt"].split()
    return 200, {
        "model": "test-lm",
        "tokens": words,
        "token_logprobs": [None] + [-1.0] * (len(words) - 1),
    }


class Endpoint:
    """Answers POST number ``n`` (from 0) with ``behaviors[n]``, with the
    last behavior once they run out, or with :func:`echo_logprobs` while
    there is none. A behavior maps the request payload to ``(status, body)``
    or ``(status, body, extra headers)``; a status of None drops the
    connection without an answer. Each answer waits ``latency_s`` first.

    It speaks HTTP/1.1, or HTTP/1.0 without ``keep_alive``. Once it has
    answered POST number ``kill_after`` (from 1) it kills the child process
    ``victim``. Counts are read and set under ``lock``. Per POST it keeps
    its connection and its ``Authorization`` header or None, and in
    ``prompts`` the prompt of each POST it read whole.
    """

    def __init__(self, *behaviors, latency_s: float = 0.0, keep_alive: bool = True):
        self.behaviors = list(behaviors)
        self.lock = threading.Lock()
        self.posts = self.active = self.peak = self.opened = self.closed = 0
        self.connections: list = []
        self.authorizations: list = []
        self.prompts: list = []
        self.kill_after = self.victim = None
        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1" if keep_alive else "HTTP/1.0"
            disable_nagle_algorithm = True

            def setup(self):
                super().setup()
                with endpoint.lock:
                    endpoint.opened += 1

            def finish(self):
                try:
                    super().finish()
                finally:
                    with endpoint.lock:
                        endpoint.closed += 1

            def do_POST(self):
                with endpoint.lock:
                    n, behaviors = endpoint.posts, endpoint.behaviors
                    behavior = behaviors[min(n, len(behaviors) - 1)] if behaviors else echo_logprobs
                    endpoint.posts += 1
                    endpoint.active += 1
                    endpoint.peak = max(endpoint.peak, endpoint.active)
                    endpoint.connections.append(self.connection)
                    endpoint.authorizations.append(self.headers["Authorization"])
                    # the child that sent this POST
                    victim = endpoint.victim if endpoint.posts == endpoint.kill_after else None
                time.sleep(latency_s)
                length = int(self.headers["Content-Length"])
                raw = self.rfile.read(length)
                with endpoint.lock:
                    endpoint.active -= 1
                if len(raw) < length:  # a killed client's request, cut short
                    self.close_connection = True
                    return
                payload = json.loads(raw)
                endpoint.prompts.append(payload["prompt"])
                status, body, *extra = behavior(payload)
                if status is None:
                    self.close_connection = True
                    return
                data = json.dumps(body).encode()
                headers = {"Content-Type": "application/json", "Content-Length": str(len(data))}
                headers.update(*extra)
                self.send_response(status)
                for name, value in headers.items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(data)
                if victim is not None:
                    victim.kill()

            def log_message(self, *args):
                pass

        class Server(ThreadingHTTPServer):
            def handle_error(self, request, client_address):
                # a killed client's connections reset while they are answered
                if not isinstance(sys.exc_info()[1], ConnectionError):
                    super().handle_error(request, client_address)

        self.server = Server(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self.server.server_port}/v1/completions"

    @contextlib.contextmanager
    def serving(self):
        """Serve from a thread for the block; then shut down and close."""
        # a short poll, so shutdown() returns at once
        thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )
        thread.start()
        try:
            yield self
        finally:
            self.server.shutdown()
            self.server.server_close()
            thread.join(timeout=5)
        assert not thread.is_alive()

    def all_closed(self, timeout_s: float = 5.0) -> bool:
        """Whether every connection opened so far is closed within ``timeout_s``:
        handler threads are daemons, so a server shut down shows nothing of it."""
        deadline = time.monotonic() + timeout_s
        while True:
            with self.lock:
                if self.closed == self.opened:
                    return True
            if time.monotonic() > deadline:
                return False
            time.sleep(0.01)


if __name__ == "__main__":
    # SIGTERM leaves serve_forever by SystemExit: the server closes and the exit is 0
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(0))
    with Endpoint().server as server:
        print(server.server_port, flush=True)
        server.serve_forever()

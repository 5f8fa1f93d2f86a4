package serve

import "net/http"

// ClientHTTPForTest exposes the client's transport selection so external
// tests can assert the zero-value pooling behavior.
func ClientHTTPForTest(c *Client) *http.Client { return c.http() }

// MaxBodyBytes exposes the POST body cap so tests can size a body just
// past it.
const MaxBodyBytes = maxBodyBytes

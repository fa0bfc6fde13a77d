package linalg

// Assembly kernel of curl.go (curl_amd64.s). It checks no bound: CurlRows
// does. Dispatch rides the package's useAVX2.

//go:noescape
func curlRowsAVX2(args *curlArgs)

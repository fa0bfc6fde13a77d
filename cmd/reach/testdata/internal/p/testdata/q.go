package q

func InTestdata() {}
